#include "core/irrevocable.h"

#include <algorithm>

namespace anole {

namespace {

cb_kind to_cb_kind(ir_msg::kind k) {
    return static_cast<cb_kind>(static_cast<std::uint8_t>(k));
}
ir_msg::kind to_ir_kind(cb_kind k) {
    return static_cast<ir_msg::kind>(static_cast<std::uint8_t>(k));
}

}  // namespace

void irrevocable_node::on_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox) {
    if (!inited_) init(ctx);

    const std::uint64_t r = ctx.round();
    next_ = r + 1;
    if (r < p_->bc_end()) {
        broadcast_round(ctx, inbox);
    } else if (r < p_->walk_end()) {
        walk_round(ctx, inbox);
    } else if (r < p_->total_rounds()) {
        convergecast_round(ctx, inbox);
    } else {
        // Stragglers from the last convergecast round still count.
        for (const auto& [port, msg] : inbox) {
            (void)port;
            if (msg.k == ir_msg::kind::cc) absorb_id(msg.exec);
        }
        decide(ctx);
    }
    quiet_ = ctx.sent() == 0;
}

std::uint64_t irrevocable_node::quiet_horizon() const noexcept {
    if (!quiet_) return 0;
    if (next_ < p_->bc_end()) {
        // Nothing is in flight, so a slot acts only if its execution is
        // not idle; slots past the capacity are never stepped.
        const std::uint64_t width = p_->super_round();
        const std::uint64_t at = next_ % width;
        std::uint64_t horizon = p_->bc_end() - next_;
        const std::size_t stepped = std::min<std::uint64_t>(slots_.size(), width);
        for (std::size_t slot = 0; slot < stepped; ++slot) {
            const auto it = execs_.find(slots_[slot]);
            if (it == execs_.end() || it->second.idle(cfg_)) continue;
            horizon = std::min(horizon, (slot + width - at) % width);
        }
        return horizon;
    }
    if (cc_ready_ && next_ < p_->total_rounds()) return p_->total_rounds() - next_;
    return 0;
}

void irrevocable_node::init(node_ctx<ir_msg>& ctx) {
    inited_ = true;
    id_ = ctx.rng().range(1, p_->id_space());
    candidate_ = ctx.rng().bernoulli(p_->cand_prob());
    if (candidate_) {
        id_max_ = id_;  // only candidate IDs circulate (see header note)
        execs_.emplace(id_, cb_exec::make_root(degree_, id_));
        slots_.push_back(id_);
    }
}

cb_exec& irrevocable_node::exec_for(std::uint64_t exec_id) {
    auto it = execs_.find(exec_id);
    if (it == execs_.end()) {
        it = execs_.emplace(exec_id, cb_exec(degree_)).first;
        slots_.push_back(exec_id);
        if (slots_.size() > p_->super_round()) ++overflows_;
    }
    return it->second;
}

void irrevocable_node::broadcast_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox) {
    // Demultiplex by source ID; buffering preserves arrival order.
    for (const auto& [port, msg] : inbox) {
        if (msg.k > ir_msg::kind::cb_refresh) continue;  // stray later-phase msg
        exec_for(msg.exec).receive(port, to_cb_kind(msg.k), msg.value);
    }

    // One execution per engine round: slot index cycles each super-round.
    const std::uint64_t slot = ctx.round() % p_->super_round();
    if (slot >= slots_.size()) return;
    // Executions past the slot capacity (whp none) are simply never
    // stepped, matching the paper's "assign arbitrary 4c·log n executions
    // to available rounds".
    const std::uint64_t exec_id = slots_[slot];
    auto it = execs_.find(exec_id);
    if (it == execs_.end()) return;

    it->second.step(cfg_, ctx.rng(),
                    [&ctx, exec_id](port_id p, cb_kind k, std::uint64_t v) {
                        ctx.send(p, ir_msg{to_ir_kind(k), exec_id, v});
                    });
}

void irrevocable_node::walk_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox) {
    const bool launch = ctx.round() == p_->bc_end() && candidate_;
    if (inbox.empty() && walk_count_ == 0 && !launch) return;  // idle fast path

    // Receive: merge token batches, absorb larger IDs (Algorithm 5).
    for (const auto& [port, msg] : inbox) {
        if (msg.k != ir_msg::kind::walk) {
            // Last broadcast-phase stragglers: deliver to their execution
            // so tree state (parents are what convergecast needs) is
            // complete. The execution emits nothing further.
            if (msg.k <= ir_msg::kind::cb_refresh) {
                cb_exec& e = exec_for(msg.exec);
                e.receive(port, to_cb_kind(msg.k), msg.value);
                e.step(cfg_, ctx.rng(), [](port_id, cb_kind, std::uint64_t) {});
            }
            continue;
        }
        walk_count_ += msg.value;
        absorb_id(msg.exec);
    }

    // Scratch outbox, allocated once per node and wiped via touched list.
    if (out_scratch_.size() != degree_) out_scratch_.assign(degree_, 0);
    touched_.clear();
    auto emit = [&](port_id p) {
        if (out_scratch_[p]++ == 0) touched_.push_back(p);
    };

    if (launch) {
        // All x tokens leave the candidate at the first walk round
        // (Algorithm 5 lines 4-6).
        for (std::uint64_t i = 0; i < p_->x(); ++i) {
            emit(static_cast<port_id>(ctx.rng().below(degree_)));
        }
    } else {
        // Lazy step: each resident token moves with probability 1/2.
        walk_count_ = lazy_walk_step(ctx.rng(), walk_count_, degree_, emit);
    }
    for (port_id p : touched_) {
        ctx.send(p, ir_msg{ir_msg::kind::walk, id_max_, out_scratch_[p]});
        out_scratch_[p] = 0;
    }
}

void irrevocable_node::convergecast_round(node_ctx<ir_msg>& ctx,
                                          inbox_view<ir_msg> inbox) {
    if (!cc_ready_) {
        cc_ready_ = true;
        // Distinct parent ports over every territory this node joined.
        for (const auto& [exec_id, e] : execs_) {
            (void)exec_id;
            if (e.in_tree() && !e.is_root() && e.parent()) {
                parent_ports_.push_back(*e.parent());
            }
        }
        std::sort(parent_ports_.begin(), parent_ports_.end());
        parent_ports_.erase(std::unique(parent_ports_.begin(), parent_ports_.end()),
                            parent_ports_.end());
        cc_last_sent_ = 0;  // force an initial send
    }

    for (const auto& [port, msg] : inbox) {
        (void)port;
        if (msg.k == ir_msg::kind::cc || msg.k == ir_msg::kind::walk) {
            absorb_id(msg.exec);
        }
    }

    // Change-triggered push of the running maximum toward every parent.
    if (id_max_ != cc_last_sent_ && id_max_ != 0) {
        cc_last_sent_ = id_max_;
        for (port_id p : parent_ports_) {
            ctx.send(p, ir_msg{ir_msg::kind::cc, id_max_, 0});
        }
    }
}

void irrevocable_node::decide(node_ctx<ir_msg>& ctx) {
    decided_ = true;
    leader_ = candidate_ && id_max_ == id_;
    ctx.halt();
}

// ---------------------------------------------------------------------------

irrevocable_result run_irrevocable(const graph& g, const irrevocable_params& params,
                                   std::uint64_t seed, congest_budget budget,
                                   const dynamics_spec& dynamics) {
    params.validate();
    require(params.n == g.num_nodes(),
            "run_irrevocable: params.n must equal the graph size");

    return run_protocol<irrevocable_node, irrevocable_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) {
            return irrevocable_node(g.degree(static_cast<node_id>(u)), params);
        },
        [&](engine<irrevocable_node>& eng) {
            eng.set_phase("broadcast");
            eng.run_rounds(params.bc_end());
            eng.set_phase("walk");
            eng.run_rounds(params.walk_end() - params.bc_end());
            eng.set_phase("convergecast");
            eng.run_rounds(params.total_rounds() - params.walk_end());
            eng.set_phase("decide");
            eng.run_rounds(1);
            return oracle_options{.round_cap = params.total_rounds() + 1};
        },
        [](const engine<irrevocable_node>& eng, irrevocable_result& res) {
            res.phase_broadcast = eng.metrics().phase("broadcast");
            res.phase_walk = eng.metrics().phase("walk");
            res.phase_convergecast = eng.metrics().phase("convergecast");

            std::uint64_t max_cand_id = 0;
            // Territory sizes: count tree membership per execution
            // (candidate ID).
            std::map<std::uint64_t, std::uint64_t> territory;
            for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
                const auto& node = eng.node(u);
                res.slot_overflows += node.slot_overflows();
                for (const auto& [exec_id, e] : node.executions()) {
                    if (e.in_tree()) ++territory[exec_id];
                }
                if (!eng.node_present(u) || eng.node_crashed(u)) continue;
                if (node.is_candidate()) {
                    ++res.num_candidates;
                    max_cand_id = std::max(max_cand_id, node.id());
                }
            }
            for (const auto& [exec_id, count] : territory) {
                (void)exec_id;
                res.territory_sizes.push_back(count);
            }
            res.max_candidate_won = res.success && res.leader_id == max_cand_id;
        });
}

}  // namespace anole
