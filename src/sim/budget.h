// anole — CONGEST per-link bit budgets.
//
// The CONGEST model allows O(log n) bits per link per direction per round
// (paper §2). The engine enforces/accounts this according to a policy:
//
//   * count_only — no enforcement; bits are tallied, congest_rounds equals
//     rounds. Use for protocols proven to fit the budget, when the tally
//     itself is the check (tests assert max message size <= budget).
//   * strict — throw anole::error if any message exceeds the budget. Used
//     by tests to certify a protocol is CONGEST-conformant.
//   * fragment — oversized messages are charged ⌈bits/B⌉ "virtual" rounds;
//     the network, being synchronous, advances at the slowest link's pace,
//     so the round's congest cost is the max fragmentation over its
//     messages. This mirrors the paper's own accounting of the bit-by-bit
//     potential transmissions in Algorithm 7 ("Each iteration i takes
//     i·log(2k^{1+ε}) rounds of communication because ... potentials are
//     transmitted bit by bit").
#pragma once

#include <cstdint>

#include "util/bit_codec.h"
#include "util/error.h"

namespace anole {

enum class budget_mode { count_only, strict, fragment };

struct congest_budget {
    budget_mode mode = budget_mode::count_only;
    // Bits per link per direction per round; 0 means "auto" =
    // bits_factor * ceil(log2 n) chosen by the engine at construction.
    std::uint64_t bits_per_round = 0;
    std::uint64_t bits_factor = 4;  // the O() constant for auto budgets

    [[nodiscard]] static constexpr congest_budget unlimited() noexcept { return {}; }
    [[nodiscard]] static constexpr congest_budget strict_log(
        std::uint64_t factor = 4) noexcept {
        congest_budget b;
        b.mode = budget_mode::strict;
        b.bits_factor = factor;
        return b;
    }
    [[nodiscard]] static constexpr congest_budget fragmenting(
        std::uint64_t factor = 4) noexcept {
        congest_budget b;
        b.mode = budget_mode::fragment;
        b.bits_factor = factor;
        return b;
    }

    // Resolved per-round bit budget for an n-node network.
    [[nodiscard]] std::uint64_t resolve(std::size_t n) const noexcept {
        if (bits_per_round != 0) return bits_per_round;
        return bits_factor * bits_for(n > 1 ? n - 1 : 1);
    }
};

}  // namespace anole
