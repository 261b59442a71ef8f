// anole — a vector that keeps its first N elements inline.
//
// Message payloads live in the engine's flat slot arrays and are moved
// into them on every send (sim/engine.h). A payload that owns heap memory
// pays an allocation and a free per send; inline_vec<T, N> pays neither
// while it holds at most N elements. Past N, all elements move to one
// heap buffer, which clear() keeps for reuse. T must be trivially
// copyable. A moved-from inline_vec is empty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace anole {

template <class T, std::size_t N>
class inline_vec {
    static_assert(std::is_trivially_copyable_v<T> && N > 0);

public:
    inline_vec() = default;
    inline_vec(const inline_vec&) = default;
    inline_vec& operator=(const inline_vec&) = default;
    inline_vec(inline_vec&& o) noexcept
        : size_(std::exchange(o.size_, 0)), inline_(o.inline_), spill_(std::move(o.spill_)) {
        o.spill_.clear();
    }
    inline_vec& operator=(inline_vec&& o) noexcept {
        if (this != &o) {
            size_ = std::exchange(o.size_, 0);
            inline_ = o.inline_;
            spill_ = std::move(o.spill_);
            o.spill_.clear();
        }
        return *this;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] bool spilled() const noexcept { return size_ > N; }

    [[nodiscard]] T* begin() noexcept { return spilled() ? spill_.data() : inline_.data(); }
    [[nodiscard]] T* end() noexcept { return begin() + size_; }
    [[nodiscard]] const T* begin() const noexcept {
        return spilled() ? spill_.data() : inline_.data();
    }
    [[nodiscard]] const T* end() const noexcept { return begin() + size_; }
    [[nodiscard]] T& back() noexcept { return begin()[size_ - 1]; }

    void push_back(const T& v) {
        if (size_ < N) {
            inline_[size_++] = v;
            return;
        }
        if (size_ == N) spill_.assign(inline_.begin(), inline_.end());
        spill_.push_back(v);
        ++size_;
    }

    void clear() noexcept {
        size_ = 0;
        spill_.clear();
    }

private:
    // Elements live in inline_[0, size_) while size_ <= N, else in spill_
    // (which is empty otherwise). inline_ is value-initialized, so copying
    // it whole never reads an indeterminate value.
    std::uint32_t size_ = 0;
    std::array<T, N> inline_{};
    std::vector<T> spill_;
};

}  // namespace anole
