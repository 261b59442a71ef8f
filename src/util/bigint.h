// anole — arbitrary-precision unsigned integers.
//
// Why this exists: the Revocable LE algorithm (paper §5.2, Algorithm 7)
// diffuses node "potentials" that are averaged with share fraction
// 1/(2k^{1+ε}) per neighbor per round. After r rounds a potential is a
// rational with denominator (2k^{1+ε})^r — it needs ω(log n) bits and the
// paper explicitly transmits it *bit by bit* under CONGEST. Floating point
// loses the conservation invariant (Σ potentials is constant) that
// Lemma 3 rests on, so the diffusion core's exact mode (core/diffusion.h,
// E9c) keeps exact dyadic rationals (util/dyadic.h) on top of this
// unsigned bigint, as the reference the double potentials are measured
// against.
//
// Scope: unsigned only, little-endian base-2^64 limbs, the operations
// dyadic arithmetic and the bit codec need (add/compare/shift/
// small-multiply/bit ops). Not a general bignum; see tests for the
// contract.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace anole {

class bigint {
public:
    // --- construction ---
    bigint() = default;                       // value 0
    bigint(std::uint64_t v) {                 // NOLINT(google-explicit-constructor)
        if (v != 0) limbs_.push_back(v);      // implicit: uint64 -> bigint is value-preserving
    }

    // --- observers ---
    [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }

    // Number of significant bits; bit_length(0) == 0.
    [[nodiscard]] std::size_t bit_length() const noexcept;

    // Number of trailing zero bits; undefined (throws) for zero.
    [[nodiscard]] std::size_t trailing_zeros() const;

    [[nodiscard]] bool bit(std::size_t i) const noexcept;

    // Best-effort conversion to double (may lose precision / overflow to inf).
    [[nodiscard]] double to_double() const noexcept;

    // --- comparison ---
    [[nodiscard]] int compare(const bigint& o) const noexcept;
    friend bool operator==(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) == 0;
    }
    friend bool operator!=(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) != 0;
    }
    friend bool operator<(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) < 0;
    }
    friend bool operator<=(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) <= 0;
    }
    friend bool operator>(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) > 0;
    }
    friend bool operator>=(const bigint& a, const bigint& b) noexcept {
        return a.compare(b) >= 0;
    }

    // --- arithmetic ---
    bigint& operator+=(const bigint& o);
    bigint& operator<<=(std::size_t bits);
    bigint& operator>>=(std::size_t bits);
    bigint& mul_small(std::uint64_t m);

    friend bigint operator+(bigint a, const bigint& b) { return a += b; }
    friend bigint operator<<(bigint a, std::size_t k) { return a <<= k; }
    friend bigint operator>>(bigint a, std::size_t k) { return a >>= k; }

private:
    void trim() noexcept {
        while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
    }
    std::vector<std::uint64_t> limbs_;  // little-endian, no trailing zero limbs
};

}  // namespace anole
