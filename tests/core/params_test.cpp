// Tests for core/params.h: the concrete forms of the paper's parameter
// functions and their guardrails.
#include "core/params.h"

#include <gtest/gtest.h>

#include <cmath>

namespace anole {
namespace {

TEST(IrrevocableParams, IdSpaceIsNFourth) {
    irrevocable_params p;
    p.n = 10;
    EXPECT_EQ(p.id_space(), 10000u);
    p.n = 100;
    EXPECT_EQ(p.id_space(), 100000000u);
}

TEST(IrrevocableParams, IdSpaceOverflowGuard) {
    irrevocable_params p;
    p.n = std::size_t{1} << 15;
    EXPECT_THROW((void)p.id_space(), error);
}

TEST(IrrevocableParams, CandidateProbabilityClamped) {
    irrevocable_params p;
    p.n = 4;
    p.cand_c = 100;
    EXPECT_DOUBLE_EQ(p.cand_prob(), 1.0);
    p.cand_c = 1;
    p.n = 1024;
    EXPECT_NEAR(p.cand_prob(), 10.0 / 1024.0, 1e-12);
}

TEST(IrrevocableParams, XFormula) {
    irrevocable_params p;
    p.n = 1024;
    p.tmix = 64;
    p.phi = 0.25;
    // sqrt(1024*10 / (0.25*64)) = sqrt(640) = 25.3
    EXPECT_EQ(p.x(), 26u);
    p.x_mult = 2.0;
    EXPECT_EQ(p.x(), 51u);
}

TEST(IrrevocableParams, TerritoryCapAboveOne) {
    irrevocable_params p;
    p.n = 256;
    p.tmix = 16;
    p.phi = 0.5;
    EXPECT_GT(p.territory_cap(), 1u);
}

TEST(IrrevocableParams, PhaseBoundariesOrdered) {
    irrevocable_params p;
    p.n = 128;
    p.tmix = 32;
    p.phi = 0.2;
    EXPECT_LT(p.bc_end(), p.walk_end());
    EXPECT_LT(p.walk_end(), p.total_rounds());
    EXPECT_EQ(p.bc_end(), p.bc_logical_rounds() * p.super_round());
}

TEST(IrrevocableParams, TimeComplexityShape) {
    // total_rounds = O(tmix log² n): doubling tmix ~doubles rounds.
    irrevocable_params a;
    a.n = 256;
    a.tmix = 32;
    a.phi = 0.2;
    irrevocable_params b = a;
    b.tmix = 64;
    const double ratio = static_cast<double>(b.total_rounds()) /
                         static_cast<double>(a.total_rounds());
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(IrrevocableParams, Validation) {
    irrevocable_params p;
    EXPECT_THROW(p.validate(), error);
    p.n = 16;
    p.tmix = 4;
    p.phi = 0.5;
    EXPECT_NO_THROW(p.validate());
    p.phi = 1.5;
    EXPECT_THROW(p.validate(), error);
    p.phi = 0.5;
    p.cand_c = 0;
    EXPECT_THROW(p.validate(), error);
}

// --- revocable -------------------------------------------------------------

TEST(RevocableParams, ShareDenominatorIsPow2AtLeast2K) {
    revocable_params p;  // ε = 1
    for (std::uint64_t k : {2u, 4u, 8u, 16u, 32u}) {
        const std::uint64_t d = p.share_denominator(k);
        EXPECT_EQ(d & (d - 1), 0u) << "power of two";
        EXPECT_GE(static_cast<double>(d), 2.0 * p.k_pow(k));
        EXPECT_LT(static_cast<double>(d), 4.0 * p.k_pow(k));
        EXPECT_EQ(std::uint64_t{1} << p.share_denominator_log2(k), d);
    }
}

TEST(RevocableParams, WhiteProbability) {
    revocable_params p;
    EXPECT_NEAR(p.p_white(4), std::log(2.0) / 16.0, 1e-12);
    EXPECT_LE(p.p_white(2), 1.0);
}

TEST(RevocableParams, TauFraction) {
    revocable_params p;  // ε = 1: k=4 -> K=16 -> τ = 14/15
    const auto t = p.tau(4);
    EXPECT_EQ(t.num, 14u);
    EXPECT_EQ(t.den, 15u);
    const auto t2 = p.tau(2);  // K = 4 -> τ = 2/3
    EXPECT_EQ(t2.num, 2u);
    EXPECT_EQ(t2.den, 3u);
    // Degenerate small k clamps to zero.
    const auto t1 = p.tau(1);  // K = 1
    EXPECT_EQ(t1.num, 0u);
    EXPECT_EQ(t1.den, 1u);
}

TEST(RevocableParams, BlindMatchesCorollaryForm) {
    // With i_eff = 2/k, r(k) must match 2·k^{2(2+ε)}·ln(k^{2(1+ε)}) up to
    // the power-of-two rounding of D (factor <= 4) plus the additive term.
    revocable_params p;  // blind, ε = 1
    for (std::uint64_t k : {4u, 8u, 16u}) {
        const double corollary =
            2.0 * std::pow(static_cast<double>(k), 2.0 * (2.0 + p.epsilon)) *
            std::log(std::pow(static_cast<double>(k), 2.0 * (1.0 + p.epsilon)));
        const double got = static_cast<double>(p.diffusion_rounds(k));
        EXPECT_GE(got, corollary * 0.9) << k;
        EXPECT_LE(got, corollary * 4.5 + p.k_pow(k) * std::log2(2.0 * k) + 1) << k;
    }
}

TEST(RevocableParams, KnownIsoperimetricShrinksDiffusion) {
    revocable_params blind;
    revocable_params informed;
    informed.isoperimetric = 2.0;  // e.g. a good expander
    EXPECT_LT(informed.diffusion_rounds(16), blind.diffusion_rounds(16));
}

TEST(RevocableParams, CertificationIterationsGrowWithK) {
    revocable_params p;
    EXPECT_LT(p.certification_iterations(4), p.certification_iterations(64));
    EXPECT_GE(p.certification_iterations(2), 1u);
}

TEST(RevocableParams, IdRangeGrowsAndCaps) {
    revocable_params p;
    EXPECT_LT(p.id_range(4), p.id_range(16));
    EXPECT_LE(p.id_range(1 << 30), std::uint64_t{1} << 62);
}

TEST(RevocableParams, ScaledPolicyFloorsApply) {
    auto p = revocable_params::scaled(std::nullopt, 1e-9, 1e-9);
    EXPECT_EQ(p.diffusion_rounds(4), p.r_floor);
    EXPECT_EQ(p.certification_iterations(4), p.f_floor);
}

TEST(RevocableParams, Validation) {
    revocable_params p;
    EXPECT_NO_THROW(p.validate());
    p.r_scale = 0;
    EXPECT_THROW(p.validate(), error);
    p.r_scale = 1;
    p.isoperimetric = -1.0;
    EXPECT_THROW(p.validate(), error);
}

}  // namespace
}  // namespace anole
