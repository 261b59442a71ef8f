#include "util/bigint.h"

#include <algorithm>
#include <bit>

namespace anole {

namespace {
constexpr std::size_t limb_bits = 64;
}

std::size_t bigint::bit_length() const noexcept {
    if (limbs_.empty()) return 0;
    return (limbs_.size() - 1) * limb_bits +
           (limb_bits - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

std::size_t bigint::trailing_zeros() const {
    require(!is_zero(), "bigint::trailing_zeros: zero has no trailing zeros");
    std::size_t tz = 0;
    for (std::uint64_t limb : limbs_) {
        if (limb == 0) {
            tz += limb_bits;
        } else {
            tz += static_cast<std::size_t>(std::countr_zero(limb));
            break;
        }
    }
    return tz;
}

bool bigint::bit(std::size_t i) const noexcept {
    const std::size_t limb = i / limb_bits;
    if (limb >= limbs_.size()) return false;
    return ((limbs_[limb] >> (i % limb_bits)) & 1u) != 0;
}

double bigint::to_double() const noexcept {
    double out = 0.0;
    for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
        out = out * 0x1.0p64 + static_cast<double>(*it);
    }
    return out;
}

int bigint::compare(const bigint& o) const noexcept {
    if (limbs_.size() != o.limbs_.size())
        return limbs_.size() < o.limbs_.size() ? -1 : 1;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
    }
    return 0;
}

bigint& bigint::operator+=(const bigint& o) {
    const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    limbs_.resize(n, 0);
    unsigned char carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const std::uint64_t a = limbs_[i];
        const std::uint64_t sum = a + rhs + carry;
        carry = (sum < a || (carry && sum == a)) ? 1 : 0;
        limbs_[i] = sum;
    }
    if (carry) limbs_.push_back(1);
    return *this;
}

bigint& bigint::operator<<=(std::size_t bits) {
    if (is_zero() || bits == 0) return *this;
    const std::size_t limb_shift = bits / limb_bits;
    const std::size_t bit_shift = bits % limb_bits;
    const std::size_t old_n = limbs_.size();
    limbs_.resize(old_n + limb_shift + 1, 0);
    for (std::size_t i = old_n; i-- > 0;) {
        const std::uint64_t v = limbs_[i];
        limbs_[i] = 0;
        if (bit_shift == 0) {
            limbs_[i + limb_shift] |= v;
        } else {
            limbs_[i + limb_shift] |= v << bit_shift;
            limbs_[i + limb_shift + 1] |= v >> (limb_bits - bit_shift);
        }
    }
    trim();
    return *this;
}

bigint& bigint::operator>>=(std::size_t bits) {
    if (is_zero() || bits == 0) return *this;
    const std::size_t limb_shift = bits / limb_bits;
    const std::size_t bit_shift = bits % limb_bits;
    if (limb_shift >= limbs_.size()) {
        limbs_.clear();
        return *this;
    }
    const std::size_t new_n = limbs_.size() - limb_shift;
    for (std::size_t i = 0; i < new_n; ++i) {
        std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            v |= limbs_[i + limb_shift + 1] << (limb_bits - bit_shift);
        }
        limbs_[i] = v;
    }
    limbs_.resize(new_n);
    trim();
    return *this;
}

bigint& bigint::mul_small(std::uint64_t m) {
    if (m == 0 || is_zero()) {
        limbs_.clear();
        return *this;
    }
    std::uint64_t carry = 0;
    for (auto& limb : limbs_) {
        const __uint128_t prod = static_cast<__uint128_t>(limb) * m + carry;
        limb = static_cast<std::uint64_t>(prod);
        carry = static_cast<std::uint64_t>(prod >> 64);
    }
    if (carry) limbs_.push_back(carry);
    return *this;
}

}  // namespace anole
