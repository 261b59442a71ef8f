// anole — protocol parameter policies.
//
// The paper states parameters asymptotically ("c > 0 a sufficiently large
// constant", "x = Θ̃(√(n log n/(Φ tmix)))"). Experiments need concrete
// values, so every formula lives here with its provenance, and every knob
// the ablation benches sweep is an explicit field. The constants no
// experiment varies are static members: Algorithm 1's c = 1 and
// Theorem 3's ε = 1 and ξ = 0.1. Two families:
//
//   irrevocable_params — Algorithm 1 (known n). Inputs: n plus linear
//     upper bounds on tmix and a lower bound on Φ (§4: "it is enough to
//     have linear upper bounds").
//
//   revocable_params — Algorithm 6/7 (unknown n). Knows *nothing* about
//     the network in blind mode; optionally knows i(G) (Theorem 3 vs
//     Corollary 1). Provides the paper-faithful functional forms f(k),
//     p(k), r(k), τ(k) and optional scaling knobs for tractable sweeps
//     (documented substitution — see docs/ALGORITHMS.md, "Documented
//     deviations" item 4).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "util/error.h"

namespace anole {

// ---------------------------------------------------------------------------
// Irrevocable LE (paper §4)
// ---------------------------------------------------------------------------

struct irrevocable_params {
    // --- model inputs ---
    std::size_t n = 0;        // known network size (or linear upper bound)
    std::uint64_t tmix = 0;   // linear upper bound on mixing time, >= 1
    double phi = 0;           // conductance (lower bound), in (0, 1]

    // --- analysis constants (paper's single "sufficiently large" c) ---
    static constexpr double c = 1.0;  // multiplies tmix·log n round counts
    double cand_c = 1.0;      // candidate probability = cand_c·log2(n)/n

    // --- ablation knobs ---
    double x_mult = 1.0;         // scales x (E12 sweeps this)
    double walk_len_mult = 1.0;  // scales the walk length (E12)

    [[nodiscard]] double log2n() const { return std::log2(static_cast<double>(n)); }

    // ID space {1..n^4} (§4 "Selecting random IDs").
    [[nodiscard]] std::uint64_t id_space() const {
        require(n >= 2 && n < (std::size_t{1} << 15),
                "irrevocable_params: need 2 <= n < 2^15 so n^4 fits in 63 bits");
        const auto nn = static_cast<std::uint64_t>(n);
        return nn * nn * nn * nn;
    }

    // Candidate probability (c log n)/n, clamped to [0,1].
    [[nodiscard]] double cand_prob() const {
        return std::min(1.0, cand_c * log2n() / static_cast<double>(n));
    }

    // x = Θ̃(√(n log n / (Φ tmix))) — number of walks per candidate
    // (fixed before Lemma 2).
    [[nodiscard]] std::uint64_t x() const {
        const double v = std::sqrt(static_cast<double>(n) * log2n() /
                                   (phi * static_cast<double>(tmix)));
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(x_mult * v)));
    }

    // Walk length c·tmix·log n (Algorithm 5).
    [[nodiscard]] std::uint64_t walk_len() const {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(walk_len_mult * c * static_cast<double>(tmix) * log2n())));
    }

    // Cautious-broadcast territory cap x·tmix·Φ (Algorithm 4 line 2).
    [[nodiscard]] std::uint64_t territory_cap() const {
        const double v = static_cast<double>(x()) * static_cast<double>(tmix) * phi;
        return std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::ceil(v)));
    }

    // Super-round width 4c·log n (§4 "Candidate nodes span their
    // territories") — the number of engine rounds per logical
    // cautious-broadcast step, one slot per parallel execution. Stated
    // via the candidate probability (4·E[#candidates]) so that clamped
    // probabilities (cand_prob = 1 ⇒ n candidates) still yield a sound,
    // bounded slot count: n slots always suffice.
    [[nodiscard]] std::uint64_t super_round() const {
        const double expected = cand_prob() * static_cast<double>(n);
        const auto v = static_cast<std::uint64_t>(std::ceil(4.0 * expected));
        return std::clamp<std::uint64_t>(v, 1, n);
    }

    // Logical cautious-broadcast steps: c·tmix·log n (Algorithm 2 line 7).
    [[nodiscard]] std::uint64_t bc_logical_rounds() const {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(c * static_cast<double>(tmix) * log2n())));
    }

    // Convergecast rounds: c·tmix·log n (Algorithm 5 convergecast).
    [[nodiscard]] std::uint64_t cc_rounds() const { return bc_logical_rounds(); }

    // --- phase boundaries in engine rounds ---
    [[nodiscard]] std::uint64_t bc_end() const {
        return bc_logical_rounds() * super_round();
    }
    [[nodiscard]] std::uint64_t walk_end() const { return bc_end() + walk_len(); }
    [[nodiscard]] std::uint64_t total_rounds() const { return walk_end() + cc_rounds(); }

    void validate() const {
        require(n >= 2, "irrevocable_params: n >= 2");
        require(tmix >= 1, "irrevocable_params: tmix >= 1");
        require(phi > 0 && phi <= 1.0, "irrevocable_params: phi in (0,1]");
        require(cand_c > 0, "irrevocable_params: cand_c > 0");
    }
};

// ---------------------------------------------------------------------------
// Revocable LE (paper §5.2; Theorem 3 / Corollary 1)
// ---------------------------------------------------------------------------

struct revocable_params {
    // 0 < ε <= 1 (Theorem 3). ε = 1 keeps k^{1+ε} integral for k = 2^i.
    static constexpr double epsilon = 1.0;
    // 0 < ξ < 1 — per-lemma failure budget in f(k).
    static constexpr double xi = 0.1;

    // Known isoperimetric number i(G) (Theorem 3). Unset => blind mode
    // (Corollary 1): substitute the universal bound i(G) >= 2/n with the
    // current *estimate* k standing in for n, i.e. i_eff(k) = 2/k.
    std::optional<double> isoperimetric;

    // Exact dyadic potentials (paper-faithful bit-by-bit accounting) vs
    // double (fast, ablation E9).
    bool exact_potentials = true;

    // --- scaled-policy knobs (docs/ALGORITHMS.md, "Documented deviations") ---
    // Multipliers < 1 shrink the phase lengths below the proven bounds;
    // floors keep phases non-degenerate. paper_faithful() leaves these 1.
    double r_scale = 1.0;  // diffusion rounds
    double f_scale = 1.0;  // certification iterations
    std::uint64_t r_floor = 1;
    std::uint64_t f_floor = 1;
    // Hard cap on the estimate k (engine harness stops doubling there);
    // 0 = run until every node chose an ID and views are stable.
    std::uint64_t k_cap = 0;

    [[nodiscard]] static revocable_params paper_faithful(
        std::optional<double> iso = std::nullopt) {
        revocable_params p;
        p.isoperimetric = iso;
        return p;
    }
    [[nodiscard]] static revocable_params scaled(std::optional<double> iso,
                                                 double r_scale, double f_scale) {
        revocable_params p;
        p.isoperimetric = iso;
        p.r_scale = r_scale;
        p.f_scale = f_scale;
        p.r_floor = 8;
        p.f_floor = 6;
        p.exact_potentials = false;
        return p;
    }

    // k^{1+ε} as a real.
    [[nodiscard]] double k_pow(std::uint64_t k) const {
        return std::pow(static_cast<double>(k), 1.0 + epsilon);
    }

    // Share denominator D(k): the paper's 2k^{1+ε} rounded up to a power
    // of two so dyadic potentials stay exact. The diffusion matrix stays
    // symmetric and doubly stochastic; φ(P) shrinks by at most 2x, which
    // r(k) below absorbs by using D(k) directly (the paper's
    // 8k^{2(1+ε)}/i(G)² is exactly 2·(2k^{1+ε})²/i(G)²).
    [[nodiscard]] std::uint64_t share_denominator(std::uint64_t k) const {
        const double want = 2.0 * k_pow(k);
        std::uint64_t d = 2;
        while (static_cast<double>(d) < want) d <<= 1;
        return d;
    }
    [[nodiscard]] std::size_t share_denominator_log2(std::uint64_t k) const {
        const std::uint64_t d = share_denominator(k);
        std::size_t l = 0;
        while ((std::uint64_t{1} << l) < d) ++l;
        return l;
    }

    // p(k) = ln 2 / k^{1+ε} (white probability, Theorem 3).
    [[nodiscard]] double p_white(std::uint64_t k) const {
        return std::min(1.0, std::log(2.0) / k_pow(k));
    }

    // τ(k) = 1 − 1/(k^{1+ε} − 1) as an exact fraction (num, den) =
    // ((K−2), (K−1)) with K = ⌈k^{1+ε}⌉; compared exactly against dyadic
    // potentials. For k = 2, K = 2^{1+ε} may be < 3 — τ clamps to 0.
    struct threshold_fraction {
        std::uint64_t num;
        std::uint64_t den;
    };
    [[nodiscard]] threshold_fraction tau(std::uint64_t k) const {
        const auto kk =
            static_cast<std::uint64_t>(std::ceil(k_pow(k)));
        if (kk <= 2) return {0, 1};
        return {kk - 2, kk - 1};
    }

    // Degree alarm bound k^{1+ε} (Algorithm 7 line 7).
    [[nodiscard]] std::uint64_t degree_bound(std::uint64_t k) const {
        return static_cast<std::uint64_t>(std::floor(k_pow(k)));
    }

    // r(k): diffusion rounds. Theorem 3 form 8k^{2(1+ε)}/i(G)²·log(k^{2(1+ε)})
    // + k^{1+ε}·log(2k), expressed through D(k) (see share_denominator):
    // (2·D(k)²/i_eff²)·ln(k^{2(1+ε)}) + k^{1+ε}·log2(2k).
    [[nodiscard]] std::uint64_t diffusion_rounds(std::uint64_t k) const {
        const double i_eff = isoperimetric ? *isoperimetric
                                           : 2.0 / static_cast<double>(k);
        const double d = static_cast<double>(share_denominator(k));
        const double part1 = 2.0 * d * d / (i_eff * i_eff) *
                             std::log(std::pow(static_cast<double>(k),
                                               2.0 * (1.0 + epsilon)));
        const double part2 = k_pow(k) * std::log2(2.0 * static_cast<double>(k));
        const double scaled_v = r_scale * (part1 + part2);
        return std::max<std::uint64_t>(
            r_floor, static_cast<std::uint64_t>(std::ceil(scaled_v)));
    }

    // Dissemination rounds k^{1+ε} (Algorithm 7 line 14).
    [[nodiscard]] std::uint64_t dissemination_rounds(std::uint64_t k) const {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(k_pow(k))));
    }

    // f(k) = (4√2/(√2−1)²)·ln(k^{1+ε}/ξ) certification iterations
    // (Algorithm 6 header).
    [[nodiscard]] std::uint64_t certification_iterations(std::uint64_t k) const {
        const double lead = 4.0 * std::sqrt(2.0) /
                            ((std::sqrt(2.0) - 1.0) * (std::sqrt(2.0) - 1.0));
        const double v = lead * std::log(k_pow(k) / xi);
        const double scaled_v = f_scale * v;
        return std::max<std::uint64_t>(
            f_floor, static_cast<std::uint64_t>(std::ceil(scaled_v)));
    }

    // Decision-phase ID range upper bound k^{4(1+ε)}·log⁴(4k)
    // (Algorithm 6 line 15), capped at 2^62 to stay in uint64.
    [[nodiscard]] std::uint64_t id_range(std::uint64_t k) const {
        const double v = std::pow(static_cast<double>(k), 4.0 * (1.0 + epsilon)) *
                         std::pow(std::log2(4.0 * static_cast<double>(k)), 4.0);
        const double cap = 4.6e18;  // < 2^62
        return static_cast<std::uint64_t>(std::min(std::max(v, 16.0), cap));
    }

    void validate() const {
        require(!isoperimetric || *isoperimetric > 0,
                "revocable_params: i(G) must be positive when given");
        require(r_scale > 0 && f_scale > 0, "revocable_params: scales > 0");
    }
};

}  // namespace anole
