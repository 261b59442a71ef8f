// anole — standalone lazy random-walk token ensembles.
//
// The walk primitive of Algorithm 5, factored out as its own protocol:
// a set of source nodes each launch `tokens` lazy walk tokens (stay with
// probability 1/2, else uniform random neighbor); tokens traversing a
// link in the same round are batched into one ⟨count⟩ message (CONGEST).
// Each resident token takes its own lazy step through util/rng.h's
// lazy_walk_step, the rule the election protocols' walks run, so a round
// costs O(resident tokens + degree).
// Unlike the full protocol's walks, these carry no IDs — the ensemble is
// used to validate the *mixing* behaviour the analysis relies on:
// after tmix steps, token positions sample the stationary distribution
// d_v/2m (tests/core/random_walk_test.cpp checks the empirical histogram
// against graph/spectral.h's prediction).
//
// Degree-0 precondition: the connectivity requirement of the model means
// a node of degree 0 can only be the sole node of a 1-node graph (e.g.
// make_family(f, 1, s) for path/binary_tree, or a star whose center was
// removed leaving a single leaf as its own instance). Such a node is
// treated as absorbing — tokens launched there stay resident forever and
// the ensemble is a no-op. All drivers here accept that case; they never
// sample a random port on a degree-0 node.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/engine.h"
#include "util/bit_codec.h"
#include "util/rng.h"

namespace anole {

struct walk_msg {
    std::uint64_t count = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept {
        return gamma0_bits(count);
    }
};

class walk_ensemble_node {
public:
    using message_type = walk_msg;

    // `tokens` start here at round 0; the ensemble runs `rounds` steps.
    walk_ensemble_node(std::size_t degree, std::uint64_t tokens, std::uint64_t rounds)
        : degree_(degree), resident_(tokens), rounds_(rounds) {}

    void on_round(node_ctx<walk_msg>& ctx, inbox_view<walk_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            (void)port;
            resident_ += msg.count;
        }
        if (ctx.round() >= rounds_) {
            ctx.halt();
            return;
        }
        // A degree-0 node (possible only on the 1-node graph — the model
        // requires connectivity) is absorbing: every token stays, and no
        // port is ever drawn.
        if (resident_ == 0 || degree_ == 0) return;
        // Batch this round's movers per port: one ⟨count⟩ message a link.
        if (out_.size() != degree_) out_.assign(degree_, 0);
        resident_ = lazy_walk_step(ctx.rng(), resident_, degree_,
                                   [this](std::uint64_t p) { ++out_[p]; });
        for (port_id p = 0; p < degree_; ++p) {
            if (out_[p] != 0) {
                ctx.send(p, walk_msg{out_[p]});
                out_[p] = 0;
            }
        }
    }

    // Tokens currently parked at this node.
    [[nodiscard]] std::uint64_t resident() const noexcept { return resident_; }

private:
    std::size_t degree_;
    std::uint64_t resident_;
    std::uint64_t rounds_;
    std::vector<std::uint64_t> out_;
};

struct walk_ensemble_result {
    std::vector<std::uint64_t> resident;  // tokens per node at the end
    std::uint64_t total_tokens = 0;
    phase_counters totals;
};

// Launches `tokens` walks from node `source` for `rounds` lazy steps.
[[nodiscard]] walk_ensemble_result run_walk_ensemble(const graph& g, node_id source,
                                                     std::uint64_t tokens,
                                                     std::uint64_t rounds,
                                                     std::uint64_t seed);

}  // namespace anole
