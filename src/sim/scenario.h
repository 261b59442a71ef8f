// anole — unified scenario description for benches and examples.
//
// Every experiment in this repo is some number of repetitions of:
// "generate (or borrow) a topology, configure one of the five election/
// broadcast algorithms against that topology's measured profile, run it
// under a CONGEST budget with a fresh seed, collect the cost counters".
// Before the ScenarioRunner existed each bench hand-rolled that loop;
// this header is the one struct they all share now:
//
//     scenario s;
//     s.topology = family_spec{graph_family::torus, 256};
//     s.algo = irrevocable_cfg{};      // params auto-filled from profile
//     s.repetitions = 5;
//     scenario_result r = runner.run(s);
//
// Zero-valued model inputs (n, tmix, phi, i(G)) are filled in from the
// graph's measured graph_profile by the runner — exactly the
// `p.n = prof.n; p.tmix = ...` boilerplate the benches used to repeat.
// Explicitly set fields always win, so ablations can override any knob.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "baseline/flood_max.h"
#include "baseline/gilbert_le.h"
#include "core/cautious_broadcast.h"
#include "core/irrevocable.h"
#include "core/params.h"
#include "core/revocable.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/dynamics.h"
#include "sim/metrics.h"
#include "util/stats.h"

namespace anole {

// --- algorithm configurations -----------------------------------------------
//
// Each variant runs under the CONGEST budget its driver header names
// (flood_max_budget, gilbert_budget, irrevocable_budget, revocable_budget,
// cautious_budget).

// Table 1 row A: flood-max with known n and D, run for the profile's
// diameter.
struct flood_cfg {};

// Table 1 row C: Gilbert-et-al-style random-walk election (knows n, tmix).
struct gilbert_cfg {
    gilbert_params params;  // n = 0 / tmix = 0 auto-filled from profile
};

// Table 1 row B: the paper's Irrevocable LE (knows n, tmix, Φ).
struct irrevocable_cfg {
    irrevocable_params params;  // n/tmix/phi = 0 auto-filled from profile
};

// Rows D/E: the paper's Revocable LE (blind, or knows i(G)).
struct revocable_cfg {
    revocable_params params;
    // Fill params.isoperimetric from the profile (row E) when unset.
    bool auto_isoperimetric = false;
    std::uint64_t max_rounds = 30'000'000;
};

// Single-source cautious broadcast (§4 Algorithm 4; the Lemma 1 harness).
// Node 0 is the source; everything else starts passive. Runs tmix·log2 n
// logical rounds.
struct cautious_cfg {
    cb_config config;
    // If nonzero, overrides config.cap with max(2, ⌈cap_x·tmix·Φ⌉) — the
    // paper's x·tmix·Φ territory cap with x = cap_x.
    double cap_x = 0;
};

using algo_config =
    std::variant<flood_cfg, gilbert_cfg, irrevocable_cfg, revocable_cfg, cautious_cfg>;

enum class algo_kind : std::uint8_t {
    flood_max,
    gilbert,
    irrevocable,
    revocable,
    cautious_broadcast,
};

[[nodiscard]] algo_kind kind_of(const algo_config& c) noexcept;
[[nodiscard]] const char* to_string(algo_kind k) noexcept;

// --- topology specification -------------------------------------------------

// A generated instance; the runner caches it (keyed by all three fields)
// so scenarios sharing a topology also share its graph and profile.
struct family_spec {
    graph_family family;
    std::size_t n = 0;
    std::uint64_t seed = 1;
};

// Either generated by the runner or a caller-owned graph (must outlive
// every run referencing it).
using topology_spec = std::variant<family_spec, const graph*>;

// --- the scenario -----------------------------------------------------------

struct scenario {
    std::string label;  // table row label; runner derives one if empty
    topology_spec topology;
    algo_config algo;
    std::uint64_t seed = 1;      // repetition r runs with seed + r
    std::size_t repetitions = 1;
    // Dynamic-network adversary applied every round (sim/dynamics.h).
    // Default-constructed = static network, bitwise-identical to runs
    // from before this field existed.
    dynamics_spec dynamics = {};
};

// --- results ----------------------------------------------------------------

// Every driver result derives from run_outcome (sim/driver.h).
using algo_result = std::variant<flood_result, gilbert_result, irrevocable_result,
                                 revocable_result, cb_result>;

// One repetition, unified across algorithms; the full algorithm-specific
// result survives in `detail` for benches that need traces, territory
// sizes, revocation counts, ...
struct run_record {
    bool ok = false;  // false => the run threw; `error` holds the message
    std::string error;
    std::uint64_t seed = 0;
    algo_result detail;

    [[nodiscard]] bool success() const noexcept;
    [[nodiscard]] std::size_t num_leaders() const noexcept;
    [[nodiscard]] std::uint64_t rounds() const noexcept;
    [[nodiscard]] phase_counters totals() const noexcept;
    // Safety-oracle verdict attached by the driver (sim/oracle.h); a run
    // that threw reports a default (empty, evaluated = false) report.
    [[nodiscard]] oracle_report oracle() const noexcept;
    // "ok" / "error: <msg>" / the oracle's violation summary — one line
    // suitable for ledger records and campaign tables.
    [[nodiscard]] std::string verdict() const;
};

struct scenario_result {
    std::string label;
    algo_kind kind = algo_kind::flood_max;
    const graph* topology = nullptr;  // owned by the runner cache or the caller
    graph_profile profile;
    std::vector<run_record> runs;

    // --- aggregates over repetitions ---
    [[nodiscard]] std::size_t successes() const noexcept;
    [[nodiscard]] std::string success_ratio() const;  // "3/5"
    [[nodiscard]] sample_stats messages() const;
    [[nodiscard]] sample_stats bits() const;
    [[nodiscard]] sample_stats rounds() const;
    [[nodiscard]] sample_stats congest_rounds() const;
};

}  // namespace anole
