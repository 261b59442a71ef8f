// Tests for util/rng.h: determinism, bounded sampling, Bernoulli, the
// lazy-walk step (its token stream, Binomial stay count and multinomial
// port split), seeds, and the tape machinery the impossibility proof
// depends on.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace anole {
namespace {

TEST(Rng, SameSeedSameStream) {
    xoshiro256ss a(42), b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    xoshiro256ss a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) equal += a() == b() ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
    xoshiro256ss r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero) {
    xoshiro256ss r(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
    xoshiro256ss r(13);
    std::vector<int> counts(10, 0);
    const int samples = 100000;
    for (int i = 0; i < samples; ++i) ++counts[r.below(10)];
    for (int c : counts) {
        EXPECT_GT(c, samples / 10 - 600);
        EXPECT_LT(c, samples / 10 + 600);
    }
}

TEST(Rng, RangeInclusive) {
    xoshiro256ss r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(r.range(5, 8));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{5, 6, 7, 8}));
}

TEST(Rng, Uniform01InRange) {
    xoshiro256ss r(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BernoulliExtremes) {
    xoshiro256ss r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRatioMatchesExpectation) {
    xoshiro256ss r(17);
    int hits = 0;
    const int samples = 100000;
    for (int i = 0; i < samples; ++i) hits += r.bernoulli_ratio(1, 4) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / samples, 0.25, 0.01);
}

TEST(Rng, BitIsFair) {
    xoshiro256ss r(23);
    int ones = 0;
    const int samples = 100000;
    for (int i = 0; i < samples; ++i) ones += r.bit() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / samples, 0.5, 0.01);
}

// Generous chi-squared threshold: df + 5·sqrt(2·df) sits far beyond the
// 99.9th percentile for every df used here (the seeds are fixed anyway).
double chi2_threshold(std::size_t df) {
    return static_cast<double>(df) + 5.0 * std::sqrt(2.0 * static_cast<double>(df));
}

TEST(LazyWalkStep, MatchesPerTokenReference) {
    // One bit() per token, then one below(degree) per mover, in token
    // order: the draw order the pinned walk outcomes depend on.
    for (std::uint64_t tokens : {0u, 1u, 7u, 1000u}) {
        xoshiro256ss a(31 + tokens), b(31 + tokens);
        std::vector<std::uint64_t> ports, ref_ports;
        const std::uint64_t staying =
            lazy_walk_step(a, tokens, 5, [&](std::uint64_t p) { ports.push_back(p); });
        std::uint64_t ref_staying = 0;
        for (std::uint64_t t = 0; t < tokens; ++t) {
            if (b.bit()) {
                ref_ports.push_back(b.below(5));
            } else {
                ++ref_staying;
            }
        }
        EXPECT_EQ(staying, ref_staying) << tokens;
        EXPECT_EQ(ports, ref_ports) << tokens;
        EXPECT_EQ(staying + ports.size(), tokens);
        EXPECT_EQ(a(), b()) << tokens;  // both streams end in the same state
    }
}

// The stay count of a lazy step is Binomial(tokens, 1/2) and the movers
// split multinomially over the ports; the Binomial and Multinomial checks
// below hold lazy_walk_step to those two laws.

// Stay count of one lazy step, movers dropped.
std::uint64_t stayers(xoshiro256ss& rng, std::uint64_t tokens) {
    return lazy_walk_step(rng, tokens, 3, [](std::uint64_t) {});
}

TEST(Binomial, EdgeCases) {
    xoshiro256ss r(1), untouched(1);
    // No tokens: nothing stays, nothing moves, nothing is drawn.
    EXPECT_EQ(lazy_walk_step(r, 0, 3, [](std::uint64_t) { ADD_FAILURE(); }), 0u);
    EXPECT_EQ(r(), untouched());
    for (int i = 0; i < 200; ++i) EXPECT_LE(stayers(r, 7), 7u);
}

TEST(Binomial, DeterministicInSeed) {
    xoshiro256ss a(77), b(77);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(stayers(a, 1000), stayers(b, 1000));
}

// Two-sample chi-squared over outcomes k in [0, n], sparse tails pooled
// until every bucket holds >= 20 combined counts.
void expect_two_sample_match(const std::vector<int>& a, const std::vector<int>& b) {
    std::vector<double> pa, pb;
    double ca = 0, cb = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
        ca += a[k];
        cb += b[k];
        if (ca + cb >= 20) {
            pa.push_back(ca);
            pb.push_back(cb);
            ca = cb = 0;
        }
    }
    if (ca + cb > 0 && !pa.empty()) {
        pa.back() += ca;
        pb.back() += cb;
    }
    ASSERT_GE(pa.size(), 3u);
    double chi2 = 0;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const double d = pa[i] - pb[i];
        chi2 += d * d / (pa[i] + pb[i]);
    }
    EXPECT_LT(chi2, chi2_threshold(pa.size() - 1));
}

// For n <= 64 tokens the stay count has the law of the popcount of n
// fair bits, the word-at-a-time Binomial(n, 1/2) sampler.
TEST(Binomial, PopcountPathMatchesPerTokenReference) {
    for (const std::uint64_t n : {25u, 64u}) {
        const int samples = 4000;
        xoshiro256ss rng_a(101 + n), rng_b(102 + n);
        const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
        std::vector<int> a(n + 1, 0), b(n + 1, 0);
        for (int i = 0; i < samples; ++i) {
            ++a[stayers(rng_a, n)];
            ++b[std::popcount(rng_b() & mask)];
        }
        SCOPED_TRACE(n);
        expect_two_sample_match(a, b);
    }
}

TEST(Multinomial, CountsAlwaysSumToTotal) {
    xoshiro256ss rng(5);
    for (const std::uint64_t total : {0u, 1u, 13u, 100000u}) {
        std::vector<std::uint64_t> out(7, 0);
        const std::uint64_t staying =
            lazy_walk_step(rng, total, out.size(), [&](std::uint64_t p) { ++out[p]; });
        std::uint64_t sum = staying;
        for (auto c : out) sum += c;
        EXPECT_EQ(sum, total);
    }
}

TEST(Multinomial, SingleBinTakesEverything) {
    xoshiro256ss rng(6);
    std::uint64_t moved = 0;
    const std::uint64_t staying = lazy_walk_step(rng, 42, 1, [&](std::uint64_t p) {
        EXPECT_EQ(p, 0u);
        ++moved;
    });
    EXPECT_EQ(staying + moved, 42u);
}

// The stay count of n tokens is Binomial(n, 1/2): 16 equal-width buckets
// over mean ± 4σ (the outermost absorb the tails) against the exact pmf.
TEST(LazyWalkStep, StayersMatchAnalyticPmf) {
    const std::uint64_t n = 400;
    const int samples = 10000;
    const double nd = static_cast<double>(n);
    const double mean = nd / 2, sd = std::sqrt(nd) / 2;
    const int buckets = 16;
    const double lo = mean - 4 * sd, width = 8 * sd / buckets;
    auto bucket_of = [&](double k) {
        const int i = static_cast<int>((k - lo) / width);
        return i < 0 ? 0 : (i >= buckets ? buckets - 1 : i);
    };
    std::vector<double> expected(buckets, 0.0);
    for (std::uint64_t k = 0; k <= n; ++k) {
        const double kd = static_cast<double>(k);
        const double logpmf = std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                              std::lgamma(nd - kd + 1) + nd * std::log(0.5);
        expected[bucket_of(kd)] += std::exp(logpmf) * samples;
    }
    std::vector<int> observed(buckets, 0);
    xoshiro256ss rng(107);
    for (int i = 0; i < samples; ++i) {
        ++observed[bucket_of(static_cast<double>(
            lazy_walk_step(rng, n, 3, [](std::uint64_t) {})))];
    }
    double chi2 = 0;
    for (int i = 0; i < buckets; ++i) {
        ASSERT_GT(expected[i], 1.0) << "bucket " << i;
        const double d = observed[i] - expected[i];
        chi2 += d * d / expected[i];
    }
    EXPECT_LT(chi2, chi2_threshold(buckets - 1));
}

// Pooled over many steps, movers spread uniformly over the ports.
TEST(LazyWalkStep, PortTotalsUniformChiSquared) {
    const std::size_t ports = 7;
    xoshiro256ss rng(8);
    std::vector<double> totals(ports, 0.0);
    double moved = 0;
    for (int i = 0; i < 400; ++i) {
        (void)lazy_walk_step(rng, 500, ports, [&](std::uint64_t p) {
            ++totals[p];
            ++moved;
        });
    }
    const double expected = moved / static_cast<double>(ports);
    double chi2 = 0;
    for (double t : totals) chi2 += (t - expected) * (t - expected) / expected;
    EXPECT_LT(chi2, chi2_threshold(ports - 1));
}

TEST(DeriveSeed, DeterministicAndSensitive) {
    EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 2, 4));
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 3));
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
}

TEST(DeriveSeed, AdjacentCoordinatesGiveIndependentStreams) {
    // Streams for node i and node i+1 should not correlate.
    xoshiro256ss a(derive_seed(99, 0, 0)), b(derive_seed(99, 1, 0));
    int equal = 0;
    for (int i = 0; i < 1000; ++i) equal += a() == b() ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(Tape, RecorderCapturesBits) {
    tape_recorder rec(5);
    std::vector<bool> drawn;
    for (int i = 0; i < 64; ++i) drawn.push_back(rec.next_bit());
    EXPECT_EQ(rec.tape(), drawn);
}

TEST(Tape, PlayerReplaysExactly) {
    tape_recorder rec(5);
    for (int i = 0; i < 64; ++i) (void)rec.next_bit();
    tape_player play(rec.tape());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(play.next_bit(), rec.tape()[i]);
}

TEST(Tape, PlayerWrapsAround) {
    tape_player play(std::vector<bool>{true, false, true});
    std::vector<bool> expect = {true, false, true, true, false, true};
    for (bool e : expect) EXPECT_EQ(play.next_bit(), e);
}

TEST(Tape, EmptyTapeThrows) {
    EXPECT_THROW(tape_player(std::vector<bool>{}), error);
}

TEST(Tape, RngSourceDeterministic) {
    rng_bit_source a(3), b(3);
    for (int i = 0; i < 128; ++i) EXPECT_EQ(a.next_bit(), b.next_bit());
}

}  // namespace
}  // namespace anole
