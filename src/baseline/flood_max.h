// anole — flooding-max baseline (the O(m)-messages / O(D)-time class).
//
// Stands in for the classic universal Leader Election algorithms of
// Kutten et al. [16] in Table 1: every node draws a random ID from
// {1..n⁴} (random IDs substitute for the unique IDs assumed there — the
// standard trick in anonymous networks with known n) and the maximum is
// flooded for diameter-many rounds; the unique maximum raises the flag.
//
// Substitution note (docs/ALGORITHMS.md, baselines): [16]'s O(m)-expected-message algorithm
// uses referee subsampling we do not reproduce; change-triggered flooding
// is the textbook comparator with the same Θ(m)-per-wave message shape
// and O(D) time, which is what the Table 1 / E4 experiments compare
// against. Knowledge used: n (ID range, CONGEST budget) and D (round
// count) — the same row of Table 1 assumes both.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"

namespace anole {

struct flood_msg {
    std::uint64_t id = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return gamma0_bits(id); }
};

class flood_max_node {
public:
    using message_type = flood_msg;

    // `rounds` = diameter upper bound + 1 (the +1 delivers the last wave).
    flood_max_node(std::size_t degree, std::uint64_t id_space, std::uint64_t rounds)
        : degree_(degree), id_space_(id_space), rounds_(rounds) {}

    void on_round(node_ctx<flood_msg>& ctx, inbox_view<flood_msg> inbox) {
        if (ctx.round() == 0) {
            id_ = ctx.rng().range(1, id_space_);
            max_ = id_;
        }
        for (const auto& [port, msg] : inbox) {
            (void)port;
            if (msg.id > max_) max_ = msg.id;
        }
        if (ctx.round() >= rounds_) {
            // id_ == 0 means this instance joined after round 0 and never
            // drew an ID — it cannot claim leadership.
            leader_ = id_ != 0 && max_ == id_;
            done_ = true;
            ctx.halt();
            return;
        }
        // Change-triggered flood: re-broadcast only when the known
        // maximum improves (round 0 always broadcasts own ID).
        if (max_ != last_sent_) {
            last_sent_ = max_;
            for (port_id p = 0; p < degree_; ++p) {
                ctx.send(p, flood_msg{max_});
            }
        }
    }

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] bool is_leader() const noexcept { return leader_; }
    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = done_;
        st.leader = leader_;
        st.own_id = id_;
        return st;
    }

private:
    std::size_t degree_;
    std::uint64_t id_space_;
    std::uint64_t rounds_;
    std::uint64_t id_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t last_sent_ = 0;
    bool leader_ = false;
    bool done_ = false;
};

struct flood_result : run_outcome {};

// Table 1 row A's CONGEST budget: strict 16·⌈log2 n⌉ bits per link and
// round.
inline constexpr congest_budget flood_max_budget = congest_budget::strict_log(16);

// Runs flood-max with `diameter` + 1 rounds of flooding. A non-trivial
// `dynamics` spec (sim/dynamics.h) attaches the per-round adversary; the
// round cap still bounds the run, so faulty runs end in a verdict.
[[nodiscard]] flood_result run_flood_max(const graph& g, std::uint64_t diameter,
                                         std::uint64_t seed,
                                         congest_budget budget = flood_max_budget,
                                         const dynamics_spec& dynamics = {});

}  // namespace anole
