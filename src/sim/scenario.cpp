#include "sim/scenario.h"

namespace anole {

algo_kind kind_of(const algo_config& c) noexcept {
    return static_cast<algo_kind>(c.index());
}

const char* to_string(algo_kind k) noexcept {
    switch (k) {
        case algo_kind::flood_max: return "flood_max";
        case algo_kind::gilbert: return "gilbert";
        case algo_kind::irrevocable: return "irrevocable";
        case algo_kind::revocable: return "revocable";
        case algo_kind::cautious_broadcast: return "cautious_broadcast";
    }
    return "?";
}

namespace {

// Every result alternative derives from run_outcome.
const run_outcome& outcome(const algo_result& d) noexcept {
    return std::visit([](const auto& r) -> const run_outcome& { return r; }, d);
}

}  // namespace

bool run_record::success() const noexcept { return ok && outcome(detail).success; }

std::size_t run_record::num_leaders() const noexcept {
    return ok ? outcome(detail).num_leaders : 0;
}

std::uint64_t run_record::rounds() const noexcept {
    return ok ? outcome(detail).rounds : 0;
}

phase_counters run_record::totals() const noexcept {
    return ok ? outcome(detail).totals : phase_counters{};
}

oracle_report run_record::oracle() const noexcept {
    return ok ? outcome(detail).oracle : oracle_report{};
}

std::string run_record::verdict() const {
    if (!ok) return "error: " + error;
    return oracle().summary();
}

std::size_t scenario_result::successes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : runs) n += r.success() ? 1 : 0;
    return n;
}

std::string scenario_result::success_ratio() const {
    return std::to_string(successes()) + "/" + std::to_string(runs.size());
}

namespace {

template <class Fn>
sample_stats collect(const std::vector<run_record>& runs, Fn&& fn) {
    sample_stats s;
    for (const auto& r : runs) {
        if (r.ok) s.add(static_cast<double>(fn(r)));
    }
    return s;
}

}  // namespace

sample_stats scenario_result::messages() const {
    return collect(runs, [](const run_record& r) { return r.totals().messages; });
}

sample_stats scenario_result::bits() const {
    return collect(runs, [](const run_record& r) { return r.totals().bits; });
}

sample_stats scenario_result::rounds() const {
    return collect(runs, [](const run_record& r) { return r.rounds(); });
}

sample_stats scenario_result::congest_rounds() const {
    return collect(runs, [](const run_record& r) { return r.totals().congest_rounds; });
}

}  // namespace anole
