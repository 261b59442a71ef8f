// anole — Gilbert/Robinson/Sourav-style Leader Election baseline
// (PODC 2018 [10]: O(tmix·√n·log^{7/2} n) messages, the comparator that
// Theorem 1 improves on).
//
// Substitution note (DESIGN.md): we do not have [10]'s text; this module
// implements the structure as summarized *in the reproduced paper*:
// random-ID candidates spread tokens by random walks, and walk sets of
// different candidates meet whp on well-connected graphs ("territories
// which could be efficiently discovered by a small number of independent
// random walks", §1). Concretely:
//
//   * candidates (probability c·log n / n) draw IDs from {1..n⁴} and
//     launch x_g = √n·log^{3/2} n lazy random-walk tokens for
//     L = c·tmix·log n rounds — #cands · x_g · L matches the
//     O(tmix·√n·log^{7/2} n) message envelope;
//   * every node remembers, per candidate ID seen, the port of first
//     token arrival (breadcrumb). Breadcrumb chains point strictly back
//     in arrival time, hence terminate at the candidate;
//   * when a node holds evidence of two candidates A < B (a B mark and an
//     A breadcrumb, in either arrival order) it sends kill(A) along A's
//     breadcrumb; kills are forwarded (deduplicated) along breadcrumbs
//     until they reach A, whose leader hopes die;
//   * after the walk phase an equal-length drain phase lets kills finish;
//     a candidate that was never killed raises the flag.
//
// Tokens of different candidates traversing a link in the same round are
// batched into one message (≤ #candidates = O(log n) entries, so
// O(log² n) bits; the fragmenting budget charges the excess per CONGEST).
// Unlike the cautious-broadcast protocol, this baseline has no bounded
// territories: its message count scales with x_g·L = Θ̃(tmix·√n), which
// is exactly the gap the E2 experiment measures.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"

namespace anole {

struct gilbert_params {
    std::size_t n = 0;        // 0 = auto-filled by the ScenarioRunner
    std::uint64_t tmix = 0;   // 0 = auto-filled; validate() demands >= 1
    double c = 1.0;           // walk length constant
    double cand_c = 1.0;      // candidate probability constant
    double tokens_mult = 1.0; // scales x_g

    [[nodiscard]] double log2n() const { return std::log2(static_cast<double>(n)); }
    [[nodiscard]] std::uint64_t id_space() const {
        const auto nn = static_cast<std::uint64_t>(n);
        return nn * nn * nn * nn;
    }
    [[nodiscard]] double cand_prob() const {
        return std::min(1.0, cand_c * log2n() / static_cast<double>(n));
    }
    [[nodiscard]] std::uint64_t tokens() const {  // x_g = √n · log^{3/2} n
        const double v = std::sqrt(static_cast<double>(n)) * std::pow(log2n(), 1.5);
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(tokens_mult * v)));
    }
    [[nodiscard]] std::uint64_t walk_len() const {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(c * static_cast<double>(tmix) * log2n())));
    }
    [[nodiscard]] std::uint64_t total_rounds() const { return 2 * walk_len(); }

    void validate() const {
        require(n >= 2 && n < (std::size_t{1} << 15), "gilbert_params: 2 <= n < 2^15");
        require(tmix >= 1, "gilbert_params: tmix >= 1");
    }
};

struct gl_msg {
    // Batched walk tokens (id, count) plus batched kill notices.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> walks;
    std::vector<std::uint64_t> kills;

    [[nodiscard]] std::size_t bit_size() const noexcept {
        std::size_t bits = 2;  // presence flags
        for (const auto& [id, cnt] : walks) bits += gamma0_bits(id) + gamma0_bits(cnt);
        for (std::uint64_t id : kills) bits += gamma0_bits(id);
        return bits;
    }
};

class gilbert_node {
public:
    using message_type = gl_msg;

    gilbert_node(std::size_t degree, const gilbert_params& params)
        : degree_(degree), p_(&params) {}

    void on_round(node_ctx<gl_msg>& ctx, inbox_view<gl_msg> inbox);

    [[nodiscard]] bool is_candidate() const noexcept { return candidate_; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] bool is_leader() const noexcept { return leader_; }
    [[nodiscard]] std::size_t marks() const noexcept { return crumbs_.size(); }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = leader_ || killed_;
        st.leader = leader_;
        st.own_id = id_;
        return st;
    }

private:
    struct crumb {
        port_id from;      // first-arrival port: points back toward the candidate
        bool kill_sent;    // dedup: forward each kill at most once
    };

    void queue_kill(std::uint64_t id);

    std::size_t degree_;
    const gilbert_params* p_;

    bool inited_ = false;
    bool candidate_ = false;
    bool killed_ = false;
    bool leader_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t mark_max_ = 0;

    std::map<std::uint64_t, crumb> crumbs_;
    std::map<std::uint64_t, std::uint64_t> tokens_;  // id -> resident count
    // Staged per-port output, rebuilt each round.
    std::vector<gl_msg> out_;
    std::vector<char> out_used_;
};

struct gilbert_result : run_outcome {
    std::size_t num_candidates = 0;   // candidates among live nodes
    bool max_candidate_won = false;
};

[[nodiscard]] gilbert_result run_gilbert(const graph& g, const gilbert_params& params,
                                         std::uint64_t seed,
                                         congest_budget budget =
                                             congest_budget::fragmenting(16),
                                         const dynamics_spec& dynamics = {});

}  // namespace anole
