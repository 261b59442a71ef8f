// anole — exact dyadic rationals: mantissa / 2^exponent.
//
// The diffusion phase of the Revocable LE algorithm (paper Algorithm 7)
// repeatedly computes
//
//     Φ ← Φ + Σ_{i∈N} Φ_i / D  −  |N|·Φ / D,     D = 2·k^{1+ε}
//
// With D a power of two (we round the share denominator up to the next
// power of two — see core/params.h; the transition matrix stays symmetric
// and doubly stochastic, which is all Lemmas 3–5 need), every potential is
// exactly representable as m / 2^e. This type implements that arithmetic
// exactly, preserving the global conservation invariant Σ Φ = const that
// the convergence analysis relies on, and exposing the *bit size* a
// CONGEST transmission of the value would need (the paper transmits
// potentials bit by bit; the simulator's fragmenting channel uses this).
//
// Representation invariant: mantissa is odd or zero; exponent == 0 when
// mantissa is zero (canonical form, so equality is limb equality).
#pragma once

#include <cstdint>
#include <utility>

#include "util/bigint.h"
#include "util/error.h"

namespace anole {

class dyadic {
public:
    dyadic() = default;  // zero

    // m / 2^e, canonicalized.
    dyadic(bigint mantissa, std::size_t exponent)
        : mant_(std::move(mantissa)), exp_(exponent) {
        normalize();
    }

    dyadic(std::uint64_t v) : mant_(v), exp_(0) {}  // NOLINT: implicit integer lift

    [[nodiscard]] static dyadic zero() { return dyadic{}; }
    [[nodiscard]] static dyadic one() { return dyadic{1}; }

    [[nodiscard]] bool is_zero() const noexcept { return mant_.is_zero(); }
    [[nodiscard]] const bigint& mantissa() const noexcept { return mant_; }
    [[nodiscard]] std::size_t exponent() const noexcept { return exp_; }

    // --- arithmetic (exact) ---
    dyadic& operator+=(const dyadic& o);
    // Divide by 2^k (exact: exponent bump).
    dyadic& div_pow2(std::size_t k) {
        if (!mant_.is_zero()) exp_ += k;
        return *this;
    }
    // Multiply by a small integer.
    dyadic& mul_small(std::uint64_t m) {
        mant_.mul_small(m);
        normalize();
        return *this;
    }

    friend dyadic operator+(dyadic a, const dyadic& b) { return a += b; }

    // --- comparison (numeric) ---
    [[nodiscard]] int compare(const dyadic& o) const;
    friend bool operator==(const dyadic& a, const dyadic& b) { return a.compare(b) == 0; }
    friend bool operator!=(const dyadic& a, const dyadic& b) { return a.compare(b) != 0; }
    friend bool operator<(const dyadic& a, const dyadic& b) { return a.compare(b) < 0; }
    friend bool operator<=(const dyadic& a, const dyadic& b) { return a.compare(b) <= 0; }
    friend bool operator>(const dyadic& a, const dyadic& b) { return a.compare(b) > 0; }
    friend bool operator>=(const dyadic& a, const dyadic& b) { return a.compare(b) >= 0; }

    // --- conversions / size ---
    [[nodiscard]] double to_double() const noexcept;

    // Bits to transmit this value verbatim: mantissa bits + exponent encoded
    // as an Elias-gamma-style length (see util/bit_codec.h
    // bit_writer::put_dyadic for the wire format; this matches it exactly).
    [[nodiscard]] std::size_t wire_bits() const noexcept;

private:
    void normalize() {
        if (mant_.is_zero()) {
            exp_ = 0;
            return;
        }
        const std::size_t tz = mant_.trailing_zeros();
        const std::size_t strip = tz < exp_ ? tz : exp_;
        if (strip > 0) {
            mant_ >>= strip;
            exp_ -= strip;
        }
    }

    bigint mant_;          // odd or zero
    std::size_t exp_ = 0;  // denominator = 2^exp_
};

}  // namespace anole
