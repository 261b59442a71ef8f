#include "baseline/gilbert_le.h"

#include <algorithm>
#include <utility>

namespace anole {

gilbert_node::cand_rec* gilbert_node::find(std::uint64_t id) {
    const auto it = std::ranges::lower_bound(cands_, id, {}, &cand_rec::id);
    return it != cands_.end() && it->id == id ? &*it : nullptr;
}

gilbert_node::cand_rec& gilbert_node::record(std::uint64_t id, port_id port) {
    const auto it = std::ranges::lower_bound(cands_, id, {}, &cand_rec::id);
    if (it != cands_.end() && it->id == id) return *it;
    return *cands_.insert(it, cand_rec{id, 0, port, false});
}

void gilbert_node::queue_kill(cand_rec& c) {
    if (c.kill_sent) return;
    c.kill_sent = true;
    out_[c.from].kills.push_back(c.id);
}

void gilbert_node::on_round(node_ctx<gl_msg>& ctx, inbox_view<gl_msg> inbox) {
    if (!inited_) {
        inited_ = true;
        candidate_ = ctx.rng().bernoulli(p_->cand_prob());
        if (candidate_) {
            id_ = ctx.rng().range(1, p_->id_space());
            mark_max_ = id_;
            // Own ID: kills terminate here.
            cands_.push_back(cand_rec{id_, p_->tokens(), 0, true});
            walking_ = true;
        }
        out_.resize(degree_);
    }

    const std::uint64_t r = ctx.round();
    if (r >= p_->total_rounds()) {
        leader_ = candidate_ && !killed_ && mark_max_ == id_;
        ctx.halt();
        return;
    }
    if (inbox.empty() && !walking_) return;  // idle fast path

    // --- receive ---
    for (const auto& [port, msg] : inbox) {
        for (const gl_walk& w : msg.walks) {
            // Breadcrumb: first arrival port points back toward the
            // candidate (strictly earlier in time, hence acyclic).
            cand_rec& c = record(w.id, port);
            if (w.id > mark_max_) {
                // This territory is dominated: kill every weaker
                // candidate we hold a breadcrumb for.
                mark_max_ = w.id;
                for (cand_rec& weaker : cands_) {
                    if (weaker.id >= w.id) break;
                    queue_kill(weaker);
                }
            } else if (w.id < mark_max_) {
                queue_kill(c);  // token walked into stronger territory
            }
            c.tokens += w.count;  // tokens keep walking regardless
        }
        for (std::uint64_t kid : msg.kills) {
            if (candidate_ && kid == id_) {
                killed_ = true;
            } else if (cand_rec* c = find(kid)) {
                queue_kill(*c);  // forward along the breadcrumb chain
            }
        }
    }
    if (candidate_ && mark_max_ > id_) killed_ = true;

    // --- move tokens (walk phase only; drain phase only forwards kills) ---
    if (r < p_->walk_len()) {
        // A local copy of the stream keeps its state in registers across
        // the token loop; it is written back below.
        xoshiro256ss rng = ctx.rng();
        walking_ = false;
        for (cand_rec& c : cands_) {
            c.tokens = lazy_walk_step(rng, c.tokens, degree_, [&](std::uint64_t p) {
                // Records run in id order, so this candidate's batch
                // entry on the port, if any, is the last one.
                auto& walks = out_[p].walks;
                if (!walks.empty() && walks.back().id == c.id) {
                    ++walks.back().count;
                } else {
                    walks.push_back(gl_walk{c.id, 1});
                }
            });
            walking_ = walking_ || c.tokens != 0;
        }
        ctx.rng() = rng;
    } else {
        walking_ = false;  // walk phase over; only kills continue
    }

    for (port_id p = 0; p < degree_; ++p) {
        gl_msg& m = out_[p];
        if (!m.walks.empty() || !m.kills.empty()) ctx.send(p, std::move(m));
    }
}

gilbert_result run_gilbert(const graph& g, const gilbert_params& params,
                           std::uint64_t seed, congest_budget budget,
                           const dynamics_spec& dynamics) {
    params.validate();
    require(params.n == g.num_nodes(), "run_gilbert: params.n must equal graph size");

    return run_protocol<gilbert_node, gilbert_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) {
            return gilbert_node(g.degree(static_cast<node_id>(u)), params);
        },
        [&](engine<gilbert_node>& eng) {
            eng.set_phase("gilbert");
            eng.run_rounds(params.total_rounds() + 1);
            return oracle_options{.round_cap = params.total_rounds() + 1};
        },
        [](const engine<gilbert_node>& eng, gilbert_result& res) {
            std::uint64_t max_cand = 0;
            for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
                if (!eng.node_present(u) || eng.node_crashed(u)) continue;
                const auto& nd = eng.node(u);
                if (!nd.is_candidate()) continue;
                ++res.num_candidates;
                max_cand = std::max(max_cand, nd.id());
            }
            res.max_candidate_won = res.success && res.leader_id == max_cand;
        });
}

}  // namespace anole
