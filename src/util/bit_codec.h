// anole — bit-exact message encoding.
//
// The CONGEST model charges communication in *bits*: O(log n) bits per
// link per round (paper §2). The simulator (src/sim) therefore accounts
// message sizes in bits. Protocols that ship structured payloads (IDs,
// counters, potentials) charge each message the size its fields would
// take in the formats below (gamma_bits, gamma0_bits,
// encoded_dyadic_bits), not sizeof(struct); they never serialize.
// bit_writer/bit_reader are the reference encoder those size functions
// are tested against.
//
// Wire formats:
//   * fixed-width field: `width` low bits of a value, MSB-first.
//   * Elias-gamma natural number (>=1): unary length prefix + binary rest;
//     encode_gamma(v) costs 2*floor(log2 v) + 1 bits.
//   * non-negative integer via gamma(v+1).
//   * dyadic rational: gamma(exponent+1), gamma(mantissa_bits+1), then the
//     mantissa bits (canonical odd mantissa, MSB-first).
//
// bit_writer/bit_reader are symmetric; round-trip tests in
// tests/util/bit_codec_test.cpp pin the format.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bigint.h"
#include "util/dyadic.h"
#include "util/error.h"

namespace anole {

class bit_writer {
public:
    void put_bit(bool b) {
        bits_.push_back(b);
    }

    // Writes the `width` low bits of `v`, most significant first.
    void put_uint(std::uint64_t v, std::size_t width) {
        require(width <= 64, "bit_writer::put_uint: width > 64");
        for (std::size_t i = width; i-- > 0;) put_bit(((v >> i) & 1u) != 0);
    }

    // Elias gamma code for v >= 1.
    void put_gamma(std::uint64_t v);

    // Any non-negative value, as gamma(v + 1).
    void put_gamma0(std::uint64_t v) { put_gamma(v + 1); }

    void put_dyadic(const dyadic& d);

    [[nodiscard]] std::size_t size_bits() const noexcept { return bits_.size(); }
    [[nodiscard]] const std::vector<bool>& bits() const noexcept { return bits_; }
    [[nodiscard]] std::vector<bool> take() noexcept { return std::move(bits_); }

private:
    std::vector<bool> bits_;
};

class bit_reader {
public:
    explicit bit_reader(const std::vector<bool>& bits) : bits_(bits) {}

    [[nodiscard]] bool get_bit() {
        require(pos_ < bits_.size(), "bit_reader: out of bits");
        return bits_[pos_++];
    }

    [[nodiscard]] std::uint64_t get_uint(std::size_t width) {
        require(width <= 64, "bit_reader::get_uint: width > 64");
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i) v = (v << 1) | (get_bit() ? 1u : 0u);
        return v;
    }

    [[nodiscard]] std::uint64_t get_gamma();
    [[nodiscard]] std::uint64_t get_gamma0() { return get_gamma() - 1; }
    [[nodiscard]] dyadic get_dyadic();

    [[nodiscard]] std::size_t remaining() const noexcept { return bits_.size() - pos_; }
    [[nodiscard]] bool exhausted() const noexcept { return pos_ == bits_.size(); }

private:
    const std::vector<bool>& bits_;
    std::size_t pos_ = 0;
};

// Size (in bits) of the gamma encoding of v >= 1, without encoding.
// Inline: message types call this from bit_size() on the engine's send
// hot path.
[[nodiscard]] inline std::size_t gamma_bits(std::uint64_t v) noexcept {
    if (v == 0) return 0;  // not encodable; callers use gamma0 for 0
    const auto floor_log2 = static_cast<std::size_t>(std::bit_width(v) - 1);
    return 2 * floor_log2 + 1;
}
// Size of gamma0 (v >= 0).
[[nodiscard]] inline std::size_t gamma0_bits(std::uint64_t v) noexcept {
    return gamma_bits(v + 1);
}
// Size of the dyadic wire format, matching bit_writer::put_dyadic.
[[nodiscard]] std::size_t encoded_dyadic_bits(const dyadic& d) noexcept;

// Number of bits needed to represent values 0..max_value (>=1 wide).
[[nodiscard]] inline std::size_t bits_for(std::uint64_t max_value) noexcept {
    if (max_value == 0) return 1;
    return static_cast<std::size_t>(std::bit_width(max_value));
}

}  // namespace anole
