// Tests for util/bigint.h: the arbitrary-precision substrate under the
// exact diffusion potentials.
#include "util/bigint.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace anole {
namespace {

bigint random_bigint(xoshiro256ss& rng, std::size_t max_limbs) {
    bigint out;
    const std::size_t limbs = 1 + rng.below(max_limbs);
    for (std::size_t i = 0; i < limbs; ++i) {
        out <<= 64;
        out += bigint(rng());
    }
    return out;
}

bigint pow2(std::size_t k) { return bigint(1) << k; }

TEST(Bigint, DefaultIsZero) {
    bigint z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.bit_length(), 0u);
    EXPECT_EQ(z, bigint(0));
    EXPECT_DOUBLE_EQ(z.to_double(), 0.0);
}

TEST(Bigint, FromUint64) {
    bigint v(12345);
    EXPECT_FALSE(v.is_zero());
    EXPECT_EQ(v.bit_length(), 14u);
    EXPECT_DOUBLE_EQ(v.to_double(), 12345.0);
    const bigint top(~std::uint64_t{0});
    EXPECT_EQ(top.bit_length(), 64u);
    EXPECT_LT(top, pow2(64));
}

TEST(Bigint, Pow2) {
    EXPECT_EQ(pow2(0), bigint(1));
    EXPECT_EQ(pow2(10), bigint(1024));
    EXPECT_EQ(pow2(63), bigint(std::uint64_t{1} << 63));
    EXPECT_EQ(pow2(64).bit_length(), 65u);
    EXPECT_EQ(pow2(100).bit_length(), 101u);
    EXPECT_EQ(pow2(100).trailing_zeros(), 100u);
}

TEST(Bigint, AdditionCarries) {
    bigint a(~std::uint64_t{0});
    a += bigint(1);
    EXPECT_EQ(a, pow2(64));
    // A carry that runs through a whole limb of ones.
    bigint b = (bigint(~std::uint64_t{0}) << 64) + bigint(~std::uint64_t{0});
    b += bigint(1);
    EXPECT_EQ(b, pow2(128));
}

TEST(Bigint, CompareOrdering) {
    EXPECT_LT(bigint(3), bigint(5));
    EXPECT_GT(pow2(100), pow2(99));
    EXPECT_GT(pow2(64), bigint(~std::uint64_t{0}));
    EXPECT_LT(pow2(64) + bigint(1), pow2(64) + bigint(2));
    EXPECT_EQ(bigint(7), bigint(7));
    EXPECT_LE(bigint(7), bigint(7));
    EXPECT_NE(bigint(7), bigint(8));
}

TEST(Bigint, ShiftRoundTrip) {
    xoshiro256ss rng(4);
    for (int i = 0; i < 50; ++i) {
        const bigint a = random_bigint(rng, 4);
        const std::size_t k = rng.below(200);
        EXPECT_EQ((a << k) >> k, a) << "k=" << k;
    }
}

TEST(Bigint, ShiftRightTruncates) {
    bigint a(0b1011);
    EXPECT_EQ(a >> 2, bigint(0b10));
    EXPECT_EQ(a >> 64, bigint(0));
}

// a·m by shift-and-add over the set bits of m.
TEST(Bigint, MulMatchesMulSmall) {
    xoshiro256ss rng(8);
    for (int i = 0; i < 50; ++i) {
        const bigint a = random_bigint(rng, 3);
        const std::uint64_t m = rng();
        bigint shift_add;
        for (std::size_t b = 0; b < 64; ++b) {
            if (((m >> b) & 1u) != 0) shift_add += a << b;
        }
        bigint via_small = a;
        via_small.mul_small(m);
        EXPECT_EQ(via_small, shift_add);
    }
}

TEST(Bigint, MulBigKnownValue) {
    // (2^64+1)·(2^64−1) = 2^128 − 1: every bit of two limbs set.
    bigint a = pow2(64) + bigint(1);
    a.mul_small(~std::uint64_t{0});
    EXPECT_EQ(a, (bigint(~std::uint64_t{0}) << 64) + bigint(~std::uint64_t{0}));
    EXPECT_EQ(a.bit_length(), 128u);
    EXPECT_EQ(a.trailing_zeros(), 0u);
    a.mul_small(0);
    EXPECT_TRUE(a.is_zero());
}

TEST(Bigint, BitLength) {
    EXPECT_EQ(bigint(1).bit_length(), 1u);
    EXPECT_EQ(bigint(2).bit_length(), 2u);
    EXPECT_EQ(bigint(255).bit_length(), 8u);
    EXPECT_EQ(bigint(256).bit_length(), 9u);
}

TEST(Bigint, TrailingZeros) {
    EXPECT_EQ(bigint(1).trailing_zeros(), 0u);
    EXPECT_EQ(bigint(8).trailing_zeros(), 3u);
    EXPECT_EQ((bigint(3) << 100).trailing_zeros(), 100u);
    EXPECT_THROW((void)bigint(0).trailing_zeros(), error);
}

TEST(Bigint, BitAccess) {
    bigint a(0b1010);
    EXPECT_FALSE(a.bit(0));
    EXPECT_TRUE(a.bit(1));
    EXPECT_FALSE(a.bit(2));
    EXPECT_TRUE(a.bit(3));
    EXPECT_FALSE(a.bit(1000));  // out of range = 0
}

TEST(Bigint, ToDouble) {
    EXPECT_DOUBLE_EQ(bigint(12345).to_double(), 12345.0);
    EXPECT_EQ(pow2(100).to_double(), std::ldexp(1.0, 100));
}

}  // namespace
}  // namespace anole
