// anole — simulation metrics.
//
// Communication accounting per the paper's cost model (§2):
//   * time  = number of synchronous rounds;
//   * messages = point-to-point messages (one per link direction per round);
//   * bits = exact encoded size of every message (CONGEST charges
//     O(log n) bits per link per round; our tables report both);
//   * congest_rounds = rounds after charging fragmentation: a message of
//     b bits on a link with per-round budget B costs ⌈b/B⌉ rounds, and a
//     synchronous network advances at the pace of its slowest link. This
//     is how the paper accounts the bit-by-bit potential transmissions in
//     Theorem 3's time analysis.
//
// Counters can be split by named phase (engine.set_phase) so benches can
// report per-phase rows (broadcast vs walk vs convergecast, ...).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anole {

struct phase_counters {
    std::uint64_t rounds = 0;
    std::uint64_t congest_rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;

    phase_counters& operator+=(const phase_counters& o) noexcept {
        rounds += o.rounds;
        congest_rounds += o.congest_rounds;
        messages += o.messages;
        bits += o.bits;
        return *this;
    }

    friend bool operator==(const phase_counters&, const phase_counters&) = default;
};

class sim_metrics {
public:
    void begin_phase(const std::string& name) { current_ = name; }

    void count_round(std::uint64_t congest_cost) noexcept { count_rounds(1, congest_cost); }

    // Bulk form: `rounds` rounds costing `congest_cost` in total (the
    // engine's quiet-round fast-forward charges a skipped run at once).
    void count_rounds(std::uint64_t rounds, std::uint64_t congest_cost) noexcept {
        auto& c = phases_[current_];
        c.rounds += rounds;
        c.congest_rounds += congest_cost;
        total_.rounds += rounds;
        total_.congest_rounds += congest_cost;
    }
    void count_message(std::uint64_t bits) noexcept { count_messages(1, bits); }

    // Bulk form: the engine accumulates a whole round's sends locally and
    // flushes once, so the per-send hot path never touches the phase map.
    void count_messages(std::uint64_t messages, std::uint64_t bits) noexcept {
        auto& c = phases_[current_];
        c.messages += messages;
        c.bits += bits;
        total_.messages += messages;
        total_.bits += bits;
    }

    [[nodiscard]] const phase_counters& total() const noexcept { return total_; }
    [[nodiscard]] const std::map<std::string, phase_counters>& phases() const noexcept {
        return phases_;
    }
    [[nodiscard]] phase_counters phase(const std::string& name) const {
        auto it = phases_.find(name);
        return it == phases_.end() ? phase_counters{} : it->second;
    }

private:
    std::string current_ = "default";
    phase_counters total_;
    std::map<std::string, phase_counters> phases_;
};

}  // namespace anole
