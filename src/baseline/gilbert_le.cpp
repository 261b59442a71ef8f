#include "baseline/gilbert_le.h"

#include <algorithm>

namespace anole {

void gilbert_node::queue_kill(std::uint64_t id) {
    auto it = crumbs_.find(id);
    if (it == crumbs_.end() || it->second.kill_sent) return;
    it->second.kill_sent = true;
    const port_id p = it->second.from;
    out_[p].kills.push_back(id);
    out_used_[p] = 1;
}

void gilbert_node::on_round(node_ctx<gl_msg>& ctx, inbox_view<gl_msg> inbox) {
    if (!inited_) {
        inited_ = true;
        candidate_ = ctx.rng().bernoulli(p_->cand_prob());
        if (candidate_) {
            id_ = ctx.rng().range(1, p_->id_space());
            mark_max_ = id_;
            tokens_[id_] = p_->tokens();
            crumbs_[id_] = {0, true};  // own ID: kills terminate here
        }
        out_.resize(degree_);
        out_used_.assign(degree_, 0);
    }

    const std::uint64_t r = ctx.round();
    if (r >= p_->total_rounds()) {
        leader_ = candidate_ && !killed_ && mark_max_ == id_;
        ctx.halt();
        return;
    }
    if (inbox.empty() && tokens_.empty()) return;  // idle fast path

    for (auto& m : out_) {
        m.walks.clear();
        m.kills.clear();
    }
    std::fill(out_used_.begin(), out_used_.end(), 0);

    // --- receive ---
    for (const auto& [port, msg] : inbox) {
        for (const auto& [wid, cnt] : msg.walks) {
            // Breadcrumb: first arrival port points back toward the
            // candidate (strictly earlier in time, hence acyclic).
            crumbs_.try_emplace(wid, crumb{port, false});
            if (wid > mark_max_) {
                // This territory is dominated: kill every weaker
                // candidate we hold a breadcrumb for.
                mark_max_ = wid;
                for (const auto& [cid, cr] : crumbs_) {
                    (void)cr;
                    if (cid < wid) queue_kill(cid);
                }
            } else if (wid < mark_max_) {
                queue_kill(wid);  // token walked into stronger territory
            }
            tokens_[wid] += cnt;  // tokens keep walking regardless
        }
        for (std::uint64_t kid : msg.kills) {
            if (candidate_ && kid == id_) {
                killed_ = true;
            } else {
                queue_kill(kid);  // forward along the breadcrumb chain
            }
        }
    }
    if (candidate_ && mark_max_ > id_) killed_ = true;

    // --- move tokens (walk phase only; drain phase only forwards kills) ---
    if (r < p_->walk_len()) {
        for (auto& [wid, cnt] : tokens_) {
            std::uint64_t staying = 0;
            for (std::uint64_t t = 0; t < cnt; ++t) {
                if (ctx.rng().bit()) {
                    const auto p = static_cast<port_id>(ctx.rng().below(degree_));
                    bool found = false;
                    for (auto& w : out_[p].walks) {
                        if (w.first == wid) {
                            ++w.second;
                            found = true;
                            break;
                        }
                    }
                    if (!found) out_[p].walks.emplace_back(wid, 1);
                    out_used_[p] = 1;
                } else {
                    ++staying;
                }
            }
            cnt = staying;
        }
        // Drop empty entries to keep the map small.
        for (auto it = tokens_.begin(); it != tokens_.end();) {
            it = it->second == 0 ? tokens_.erase(it) : std::next(it);
        }
    } else {
        tokens_.clear();  // walk phase over; only kills continue
    }

    for (port_id p = 0; p < degree_; ++p) {
        if (out_used_[p]) ctx.send(p, out_[p]);
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
