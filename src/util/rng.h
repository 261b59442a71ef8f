// anole — deterministic random-number substrate.
//
// All randomness in the library flows through these generators so that
// every experiment is reproducible from a single (graph, seed) pair.
//
//   * splitmix64 — stateless mixer; used to derive independent stream
//     seeds from (master_seed, node_index, phase_tag) tuples.
//   * xoshiro256ss — the workhorse generator (xoshiro256**, Blackman &
//     Vigna); satisfies UniformRandomBitGenerator so <random>
//     distributions work, but we provide bias-free bounded sampling
//     (Lemire) and exact Bernoulli helpers of our own because protocol
//     correctness proofs are stated in exact probabilities.
//
// Protocol code additionally supports *recorded tapes* (util/rng.h's
// `tape_recorder` / `tape_player`): the impossibility machinery
// (Theorem 2) needs to replay the exact bit sequence an execution drew.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.h"

namespace anole {

// --- splitmix64 -----------------------------------------------------------

// Stateless 64-bit mixer. mix(seed, i) gives the i-th derived seed.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Derives a well-mixed seed from up to three coordinates. Passing the same
// coordinates always yields the same seed; distinct coordinates yield
// (practically) independent seeds.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master, std::uint64_t a = 0,
                                                  std::uint64_t b = 0) noexcept {
    std::uint64_t s = master;
    std::uint64_t x = splitmix64_next(s);
    s ^= a * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL;
    x ^= splitmix64_next(s);
    s ^= b * 0xda942042e4dd58b5ULL + 0x9e3779b97f4a7c15ULL;
    x ^= splitmix64_next(s);
    return x;
}

// --- xoshiro256** ---------------------------------------------------------

class xoshiro256ss {
public:
    using result_type = std::uint64_t;

    xoshiro256ss() : xoshiro256ss(0xdeadbeefcafef00dULL) {}

    explicit xoshiro256ss(std::uint64_t seed) noexcept {
        // Seed the full 256-bit state from splitmix64, as recommended by
        // the xoshiro authors; guards against the all-zero state.
        std::uint64_t s = seed;
        for (auto& w : state_) w = splitmix64_next(s);
        if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    // Uniform integer in [0, bound) without modulo bias (Lemire's method).
    // bound must be > 0.
    [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
        // 128-bit multiply-shift; rejection only in the rare biased zone.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    // Uniform integer in the inclusive range [lo, hi].
    [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
        return lo + below(hi - lo + 1);
    }

    // Uniform double in [0, 1) with 53 random bits.
    [[nodiscard]] double uniform01() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    // Bernoulli(p). Exact for p given as a double.
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

    // Bernoulli(num/den) with exact integer arithmetic — used where the
    // paper's analysis depends on exact probabilities like (c log n)/n.
    [[nodiscard]] bool bernoulli_ratio(std::uint64_t num, std::uint64_t den) noexcept {
        return below(den) < num;
    }

    // One fair random bit (the impossibility proof's unit of randomness).
    [[nodiscard]] bool bit() noexcept { return ((*this)() >> 63) != 0; }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }
    std::uint64_t state_[4];
};

// One lazy-walk step of the `tokens` walk tokens resident at a node with
// `degree` ports (Algorithm 5): each token draws one bit() and stays on a
// 0; a moving token draws below(degree) and is passed to emit(port).
// Returns how many stayed. Every walk protocol steps its tokens here, so
// all of them draw the same stream for the same tokens. A node that has
// tokens to move must have degree > 0.
template <class Emit>
[[nodiscard]] std::uint64_t lazy_walk_step(xoshiro256ss& rng, std::uint64_t tokens,
                                           std::uint64_t degree, Emit&& emit) {
    std::uint64_t staying = 0;
    for (std::uint64_t t = 0; t < tokens; ++t) {
        if (rng.bit()) {
            emit(rng.below(degree));
        } else {
            ++staying;
        }
    }
    return staying;
}

// --- random tapes ---------------------------------------------------------
//
// Theorem 2's pumping-wheel argument treats an execution as a function of
// the per-round random bits each node draws. `bit_source` abstracts where
// those bits come from so the same protocol code runs live (fresh RNG),
// recorded (RNG + transcript) or replayed (transcript, wrap-around).

class bit_source {
public:
    virtual ~bit_source() = default;
    [[nodiscard]] virtual bool next_bit() = 0;
};

// Live generator-backed bits.
class rng_bit_source final : public bit_source {
public:
    explicit rng_bit_source(std::uint64_t seed) : rng_(seed) {}
    [[nodiscard]] bool next_bit() override { return rng_.bit(); }

private:
    xoshiro256ss rng_;
};

// Draws from an RNG while recording every bit for later replay.
class tape_recorder final : public bit_source {
public:
    explicit tape_recorder(std::uint64_t seed) : rng_(seed) {}

    [[nodiscard]] bool next_bit() override {
        const bool b = rng_.bit();
        tape_.push_back(b);
        return b;
    }

    [[nodiscard]] const std::vector<bool>& tape() const noexcept { return tape_; }

private:
    xoshiro256ss rng_;
    std::vector<bool> tape_;
};

// Replays a fixed tape; wraps around if the consumer outruns it (the
// pumping-wheel construction only relies on the first T(n) rounds, so
// wrap-around never affects the checked prefix).
class tape_player final : public bit_source {
public:
    explicit tape_player(std::vector<bool> tape) : tape_(std::move(tape)) {
        require(!tape_.empty(), "tape_player: empty tape");
    }

    [[nodiscard]] bool next_bit() override {
        const bool b = tape_[pos_];
        pos_ = (pos_ + 1) % tape_.size();
        return b;
    }

private:
    std::vector<bool> tape_;
    std::size_t pos_ = 0;
};

}  // namespace anole
