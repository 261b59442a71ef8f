// anole — Gilbert/Robinson/Sourav-style Leader Election baseline
// (PODC 2018 [10]: O(tmix·√n·log^{7/2} n) messages, the comparator that
// Theorem 1 improves on).
//
// Substitution note (docs/ALGORITHMS.md, baselines): we do not have [10]'s text; this module
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
#include <vector>

#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"
#include "util/inline_vec.h"

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

// One candidate's walk tokens crossing a link together.
struct gl_walk {
    std::uint64_t id;
    std::uint64_t count;
};

struct gl_msg {
    // Batched walk tokens plus batched kill notices, inline up to a few
    // candidates per link (util/inline_vec.h): a send moves the batch
    // into the engine's slot without touching the heap.
    static constexpr std::size_t inline_walks = 4;
    static constexpr std::size_t inline_kills = 2;
    inline_vec<gl_walk, inline_walks> walks;
    inline_vec<std::uint64_t, inline_kills> kills;

    [[nodiscard]] std::size_t bit_size() const noexcept {
        std::size_t bits = 2;  // presence flags
        for (const gl_walk& w : walks) bits += gamma0_bits(w.id) + gamma0_bits(w.count);
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
    [[nodiscard]] std::size_t marks() const noexcept { return cands_.size(); }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = leader_ || killed_;
        st.leader = leader_;
        st.own_id = id_;
        return st;
    }

private:
    // Everything this node knows about one candidate ID it has seen.
    struct cand_rec {
        std::uint64_t id;
        std::uint64_t tokens;  // resident walk tokens
        port_id from;          // first-arrival port: points back toward the candidate
        bool kill_sent;        // dedup: forward each kill at most once
    };

    [[nodiscard]] cand_rec* find(std::uint64_t id);  // nullptr if never seen
    // The record of `id`, created with first-arrival port `port` if new.
    cand_rec& record(std::uint64_t id, port_id port);
    void queue_kill(cand_rec& c);

    std::size_t degree_;
    const gilbert_params* p_;

    bool inited_ = false;
    bool candidate_ = false;
    bool killed_ = false;
    bool leader_ = false;
    // Walk phase and some record has resident tokens: the node must step
    // even on an empty inbox. Records' counts are unused after the walk phase.
    bool walking_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t mark_max_ = 0;

    // Sorted by id, so every per-candidate loop (and with it the order of
    // RNG draws and batch entries) runs in id order.
    std::vector<cand_rec> cands_;
    // Staged per-port output. A send moves a batch out and leaves it
    // empty, so the staging is clean at the start of every round.
    std::vector<gl_msg> out_;
};

// Table 1 row C's CONGEST budget: fragmenting 16·⌈log2 n⌉ bits per link
// and round (walk batches may exceed one round's bits).
inline constexpr congest_budget gilbert_budget = congest_budget::fragmenting(16);

struct gilbert_result : run_outcome {
    std::size_t num_candidates = 0;   // candidates among live nodes
    bool max_candidate_won = false;
};

[[nodiscard]] gilbert_result run_gilbert(const graph& g, const gilbert_params& params,
                                         std::uint64_t seed,
                                         congest_budget budget = gilbert_budget,
                                         const dynamics_spec& dynamics = {});

}  // namespace anole
