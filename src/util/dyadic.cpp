#include "util/dyadic.h"

#include <algorithm>
#include <cmath>

#include "util/bit_codec.h"

namespace anole {

dyadic& dyadic::operator+=(const dyadic& o) {
    if (o.is_zero()) return *this;
    if (is_zero()) {
        *this = o;
        return *this;
    }
    // Align to the common denominator 2^max(exp_, o.exp_).
    const std::size_t e = std::max(exp_, o.exp_);
    bigint a = mant_ << (e - exp_);
    bigint b = o.mant_ << (e - o.exp_);
    a += b;
    mant_ = std::move(a);
    exp_ = e;
    normalize();
    return *this;
}

int dyadic::compare(const dyadic& o) const {
    if (is_zero() && o.is_zero()) return 0;
    if (is_zero()) return -1;
    if (o.is_zero()) return 1;
    // Compare m_a / 2^ea vs m_b / 2^eb  <=>  m_a << (e-ea) vs m_b << (e-eb).
    const std::size_t e = std::max(exp_, o.exp_);
    // Cheap pre-check on integer bit lengths to avoid shifting when the
    // magnitudes are far apart.
    const std::size_t la = mant_.bit_length() + (e - exp_);
    const std::size_t lb = o.mant_.bit_length() + (e - o.exp_);
    if (la != lb) return la < lb ? -1 : 1;
    const bigint a = mant_ << (e - exp_);
    const bigint b = o.mant_ << (e - o.exp_);
    return a.compare(b);
}

double dyadic::to_double() const noexcept {
    if (is_zero()) return 0.0;
    // Use the top ~64 bits of the mantissa to avoid overflowing to inf for
    // long mantissas, then scale by the adjusted exponent in one ldexp: a
    // separate 2^-exp factor underflows to 0 once exp > 1074, even where
    // the value itself is representable.
    const int exp = static_cast<int>(exp_);
    const std::size_t bl = mant_.bit_length();
    if (bl <= 1000) return std::ldexp(mant_.to_double(), -exp);
    const bigint top = mant_ >> (bl - 64);
    return std::ldexp(top.to_double(), static_cast<int>(bl - 64) - exp);
}

std::size_t dyadic::wire_bits() const noexcept {
    return encoded_dyadic_bits(*this);
}

}  // namespace anole
