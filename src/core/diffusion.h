// anole — potential diffusion (paper §5.2, the Avg core).
//
// The Revocable LE algorithm probes each network-size estimate k by
// *diffusing* node potentials: black nodes start at 1, white at 0, and in
// every round each node replaces its potential by
//
//     Φ ← Φ + Σ_{i∈N} Φ_i / D − |N|·Φ / D
//
// with share denominator D. The transition matrix is symmetric and doubly
// stochastic, so potentials converge to the uniform average ‖Φ₁‖/n
// (Lemma 3) at a rate governed by the chain's conductance (Lemma 4). The
// paper uses D = 2k^{1+ε}; we round D up to a power of two so *exact*
// (dyadic-rational) potentials stay exact — see revocable_params::
// share_denominator for why the analysis is preserved.
//
// Two arithmetic modes:
//   * approx — double arithmetic; messages are *charged* the paper's bit
//     cost (1 + round·log2 D bits), so time/bit accounting follows
//     Theorem 3's model ("each iteration i takes i·log(2k^{1+ε}) rounds")
//     even though the payload is a machine double. revocable_node runs
//     this mode only.
//   * exact — util/dyadic.h values; the conservation invariant
//     Σ Φ = const holds bit-for-bit and messages carry the true
//     (growing) encoding, transmitted bit-by-bit under CONGEST via the
//     fragmenting budget. Mantissas grow ~log2(D) bits per round, so
//     exact mode is for small round counts: it is the reference the
//     double mode is measured against (tests, E9c in bench_diffusion).
//
// This header provides both update helpers plus a standalone
// diffusion-only protocol used by the Lemma 3/4 experiments (E9).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "util/bit_codec.h"
#include "util/dyadic.h"

namespace anole {

// One diffusion update, exact arithmetic.
//   pot <- (pot*(D - deg) + Σ incoming) / D,   D = 2^log2_d
// Requires deg <= D (guaranteed by the degree alarm k^{1+ε} >= |N| and
// D >= 2k^{1+ε}).
[[nodiscard]] inline dyadic diffuse_exact(const dyadic& pot,
                                          const std::vector<dyadic>& incoming,
                                          std::uint64_t d, std::size_t log2_d) {
    dyadic acc = pot;
    acc.mul_small(d - incoming.size());
    for (const dyadic& in : incoming) acc += in;
    acc.div_pow2(log2_d);
    return acc;
}

// Same update in double arithmetic.
[[nodiscard]] inline double diffuse_approx(double pot, const std::vector<double>& incoming,
                                           std::uint64_t d) {
    double acc = pot * static_cast<double>(d - incoming.size());
    for (double in : incoming) acc += in;
    return acc / static_cast<double>(d);
}

// The paper's charged wire size of a potential in diffusion round r
// (1-based) with share denominator 2^log2_d: the value is a dyadic with
// at most 1 + r·log2_d significant bits.
[[nodiscard]] inline std::size_t charged_potential_bits(std::uint64_t r,
                                                        std::size_t log2_d) noexcept {
    return 1 + static_cast<std::size_t>(r) * log2_d;
}

// ---------------------------------------------------------------------------
// Standalone diffusion protocol (E9: Lemmas 3-5 validation)
// ---------------------------------------------------------------------------

struct diff_msg {
    double pot_d = 0;
    dyadic pot_exact;
    std::uint64_t charged = 0;  // set by sender

    [[nodiscard]] std::size_t bit_size() const noexcept { return charged; }
};

// Runs `rounds` diffusion exchanges with denominator 2^log2_d, starting
// from a given potential; exposes the trajectory endpoint. The harness
// initializes node 0..n-1 with arbitrary starting potentials (e.g. the
// black/white pattern of the Revocable LE certification phase).
class diffusion_node {
public:
    using message_type = diff_msg;

    diffusion_node(std::size_t degree, double start, bool exact, std::size_t log2_d,
                   std::uint64_t rounds)
        : degree_(degree),
          exact_(exact),
          log2_d_(log2_d),
          rounds_(rounds),
          pot_d_(start),
          pot_exact_(start >= 1.0 ? dyadic::one() : dyadic::zero()) {
        require(!exact || start == 0.0 || start == 1.0,
                "diffusion_node: exact mode starts from 0/1 potentials");
    }

    void on_round(node_ctx<diff_msg>& ctx, inbox_view<diff_msg> inbox) {
        const std::uint64_t d = std::uint64_t{1} << log2_d_;
        require(degree_ <= d, "diffusion_node: degree exceeds share denominator");
        if (ctx.round() > 0) {
            // Apply the exchange completed by last round's messages.
            if (exact_) {
                std::vector<dyadic> in;
                in.reserve(inbox.size());
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    in.push_back(msg.pot_exact);
                }
                pot_exact_ = diffuse_exact(pot_exact_, in, d, log2_d_);
            } else {
                std::vector<double> in;
                in.reserve(inbox.size());
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    in.push_back(msg.pot_d);
                }
                pot_d_ = diffuse_approx(pot_d_, in, d);
            }
        }
        if (ctx.round() >= rounds_) {
            ctx.halt();
            return;
        }
        diff_msg m;
        if (exact_) {
            m.pot_exact = pot_exact_;
            m.charged = m.pot_exact.wire_bits();
        } else {
            m.pot_d = pot_d_;
            m.charged = charged_potential_bits(ctx.round() + 1, log2_d_);
        }
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, m);
    }

    [[nodiscard]] double potential() const noexcept {
        return exact_ ? pot_exact_.to_double() : pot_d_;
    }
    [[nodiscard]] const dyadic& potential_exact() const noexcept { return pot_exact_; }
    [[nodiscard]] bool exact() const noexcept { return exact_; }

private:
    std::size_t degree_;
    bool exact_;
    std::size_t log2_d_;
    std::uint64_t rounds_;
    double pot_d_;
    dyadic pot_exact_;
};

}  // namespace anole
