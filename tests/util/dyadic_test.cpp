// Tests for util/dyadic.h: exact rationals m/2^e and the conservation
// property the diffusion analysis needs.
#include "util/dyadic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/bit_codec.h"

#include "util/rng.h"

namespace anole {
namespace {

TEST(Dyadic, ZeroAndOne) {
    EXPECT_TRUE(dyadic::zero().is_zero());
    EXPECT_FALSE(dyadic::one().is_zero());
    EXPECT_DOUBLE_EQ(dyadic::one().to_double(), 1.0);
    EXPECT_EQ(dyadic::zero().exponent(), 0u);
}

TEST(Dyadic, CanonicalForm) {
    // 4/2^2 == 1 (trailing zeros stripped).
    dyadic d(bigint(4), 2);
    EXPECT_EQ(d, dyadic::one());
    EXPECT_EQ(d.exponent(), 0u);
    // 6/2^1 == 3: exponent consumed by one factor of two.
    dyadic e(bigint(6), 1);
    EXPECT_EQ(e.mantissa(), bigint(3));
    EXPECT_EQ(e.exponent(), 0u);
}

TEST(Dyadic, HalfPlusHalfIsOne) {
    dyadic h(bigint(1), 1);  // 1/2
    EXPECT_EQ(h + h, dyadic::one());
}

TEST(Dyadic, AdditionAcrossExponents) {
    dyadic a(bigint(1), 2);  // 1/4
    dyadic b(bigint(1), 3);  // 1/8
    dyadic sum = a + b;      // 3/8
    EXPECT_EQ(sum.mantissa(), bigint(3));
    EXPECT_EQ(sum.exponent(), 3u);
    EXPECT_DOUBLE_EQ(sum.to_double(), 0.375);
}

TEST(Dyadic, CompareAcrossDenominators) {
    dyadic a(bigint(1), 1);  // 1/2
    dyadic b(bigint(3), 3);  // 3/8
    dyadic c(bigint(5), 3);  // 5/8
    EXPECT_GT(a, b);
    EXPECT_LT(a, c);
    EXPECT_LT(dyadic::zero(), b);
    EXPECT_GT(dyadic::one(), c);
    EXPECT_EQ(a, dyadic(bigint(4), 3));
}

TEST(Dyadic, DivPow2) {
    dyadic d = dyadic::one();
    d.div_pow2(4);
    EXPECT_DOUBLE_EQ(d.to_double(), 1.0 / 16.0);
    dyadic z = dyadic::zero();
    z.div_pow2(10);
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.exponent(), 0u);  // zero stays canonical
}

TEST(Dyadic, MulSmall) {
    dyadic d(bigint(3), 4);  // 3/16
    d.mul_small(4);          // 12/16 = 3/4
    EXPECT_EQ(d.mantissa(), bigint(3));
    EXPECT_EQ(d.exponent(), 2u);
}

// Values below 2^-1022 stay representable until 2^-1074; scaling by a
// separately computed 2^-exp would flush them to 0 once exp > 1074.
TEST(Dyadic, ToDoubleScalesPastTheSmallestPowerOfTwo) {
    // (2^900 + 1) / 2^1100 = 2^-200 + 2^-1100, about 6.2e-61.
    const dyadic big((bigint(1) << 900) + bigint(1), 1100);
    EXPECT_EQ(big.to_double(), std::ldexp(1.0, -200));
    // 3 / 2^1075 is 1.5 units of the smallest subnormal: rounds to 2.
    EXPECT_EQ(dyadic(bigint(3), 1075).to_double(), std::ldexp(1.0, -1073));
    // Long mantissas take the top-64-bit path: (2^1100 + 1) / 2^2150.
    const dyadic lng((bigint(1) << 1100) + bigint(1), 2150);
    EXPECT_EQ(lng.to_double(), std::ldexp(1.0, -1050));
    // Past the subnormal range the value does round to 0.
    EXPECT_EQ(dyadic(bigint(1), 1076).to_double(), 0.0);
}

TEST(Dyadic, IntegerLift) {
    dyadic d(7);
    EXPECT_DOUBLE_EQ(d.to_double(), 7.0);
    EXPECT_EQ(d.exponent(), 0u);
}

// The invariant Lemma 3 rests on: one diffusion update preserves the sum
// of potentials exactly. Simulate the exchange at one "virtual" node set.
TEST(Dyadic, DiffusionStepConservesMassExactly) {
    xoshiro256ss rng(31);
    const std::size_t n = 8;
    const std::size_t log2_d = 5;  // D = 32 >= degree
    std::vector<dyadic> pot(n);
    for (std::size_t i = 0; i < n; ++i) {
        pot[i] = rng.bit() ? dyadic::one() : dyadic::zero();
    }
    dyadic before;
    for (const auto& p : pot) before += p;

    // Complete-graph exchange: everyone averages with everyone.
    std::vector<dyadic> next(n);
    for (std::size_t i = 0; i < n; ++i) {
        dyadic acc = pot[i];
        acc.mul_small((1u << log2_d) - (n - 1));
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i) acc += pot[j];
        }
        acc.div_pow2(log2_d);
        next[i] = acc;
    }
    dyadic after;
    for (const auto& p : next) after += p;
    EXPECT_EQ(before, after);  // exact, not approximate
}

TEST(Dyadic, RepeatedAveragingApproachesMean) {
    // Two nodes averaging with share 1/4 each round converge to 1/2.
    dyadic a = dyadic::one(), b = dyadic::zero();
    for (int r = 0; r < 64; ++r) {
        dyadic na = a;
        na.mul_small(3);
        na += b;
        na.div_pow2(2);
        dyadic nb = b;
        nb.mul_small(3);
        nb += a;
        nb.div_pow2(2);
        a = na;
        b = nb;
    }
    EXPECT_NEAR(a.to_double(), 0.5, 1e-9);
    EXPECT_NEAR(b.to_double(), 0.5, 1e-9);
    EXPECT_EQ(a + b, dyadic::one());  // conservation still exact
}

TEST(Dyadic, WireBitsMatchesEncoderContract) {
    dyadic d(bigint(5), 7);
    EXPECT_EQ(d.wire_bits(), encoded_dyadic_bits(d));
    EXPECT_GT(d.wire_bits(), 0u);
}

}  // namespace
}  // namespace anole
